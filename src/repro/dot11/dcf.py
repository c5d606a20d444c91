"""802.11 DCF: CSMA/CA with binary exponential backoff.

This is the contention baseline the paper's TDMA emulation is compared
against.  The implementation follows the standard DCF state machine with
the usual simulator simplifications, each of which is conservative for the
comparison (they *favour* DCF or are neutral):

- every access draws a backoff even when the medium was idle for DIFS
  (slightly pessimistic for DCF at very light load, negligible at the loads
  the experiments run);
- no RTS/CTS (the paper's VoIP frames are far below any RTS threshold);
- no EIFS after corrupted receptions (slightly optimistic for DCF).

Unicast data frames are acknowledged after SIFS and retried with doubled
contention windows up to ``retry_limit``; broadcast frames are sent once,
unacknowledged, as per the standard.

RTS/CTS (optional, ``params.rts_threshold_bits``): unicast frames above
the threshold are preceded by a request-to-send handshake.  Overhearing
stations set their NAV (virtual carrier sense) for the duration advertised
in the RTS/CTS, which protects the data frame from hidden terminals that
cannot physically sense the transmitter.  A lost CTS is handled exactly
like a lost ACK (backoff doubling, retry accounting).

Hidden nodes: on the bare :class:`~repro.phy.channel.BroadcastChannel`
carrier sense is graph-perfect -- a station defers to any transmitting
radio neighbour, so classic hidden-terminal collisions cannot happen.
When the channel is widened with
:meth:`~repro.phy.channel.BroadcastChannel.set_physical_couplings` (from
:meth:`~repro.phy.models.SinrModel.channel_couplings`), two extra
physical effects appear without any change to this MAC: *sense pairs*
make the medium read busy for non-neighbour stations inside the carrier
sense range (more deferral), and *jam pairs* let a non-neighbour
transmitter corrupt in-flight receptions at its victims (hidden-node
collisions, traced as ``phy.jam`` / loss reason ``"interference"``).
E23 runs the DCF baseline both ways to quantify the hidden-node tax the
protocol-model abstraction hides.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.dot11.params import (
    ACK_BITS,
    CTS_BITS,
    DATA_HEADER_BITS,
    RTS_BITS,
    Dot11Params,
)
from repro.phy.channel import BroadcastChannel, ChannelClient
from repro.phy.frames import FrameKind, PhyFrame
from repro.sim.engine import Event, Simulator
from repro.sim.trace import Trace

# Reading a member off the enum class costs ~0.2 us per access, and
# on_receive compares every reception's kind against up to four of them.
_ACK, _RTS, _CTS, _DATA = (FrameKind.ACK, FrameKind.RTS, FrameKind.CTS,
                           FrameKind.DATA)


class DcfMac(ChannelClient):
    """One node's DCF MAC entity.

    Parameters
    ----------
    sim, channel:
        Event kernel and shared medium (the MAC attaches itself).
    node:
        This node's id.
    params:
        Timing/contention parameters.
    rng:
        Stream for backoff draws.
    deliver:
        Callback ``deliver(node, payload)`` invoked for every successfully
        received data frame addressed to this node (or broadcast).
    trace:
        Optional shared trace; emits ``mac.tx_data``, ``mac.retry``,
        ``mac.drop``, ``mac.deliver``, ``mac.queue_drop``.
    """

    def __init__(self, sim: Simulator, channel: BroadcastChannel, node: int,
                 params: Dot11Params, rng: np.random.Generator,
                 deliver: Callable[[int, object], None],
                 trace: Optional[Trace] = None) -> None:
        self.sim = sim
        self.channel = channel
        self.node = node
        self.params = params
        self.rng = rng
        self.deliver = deliver
        self.trace = trace if trace is not None else Trace(enabled=False)
        channel.attach(node, self)

        self._queue: deque[PhyFrame] = deque()
        self._current: Optional[PhyFrame] = None
        self._cw = params.cw_min
        self._retries = 0
        self._backoff_slots: Optional[int] = None
        #: pending fire event for the DIFS+backoff countdown
        self._access_event: Optional[Event] = None
        #: time the current countdown started (for slot accounting)
        self._countdown_start: Optional[float] = None
        self._awaiting_ack_for: Optional[int] = None
        self._ack_timeout_event: Optional[Event] = None
        self._awaiting_cts_for: Optional[int] = None
        self._cts_timeout_event: Optional[Event] = None
        #: virtual carrier sense: medium treated busy until this instant
        self._nav_until = 0.0
        self._nav_wakeup: Optional[Event] = None
        self._transmitting_until = 0.0
        #: recently seen data frame ids, for duplicate suppression after
        #: lost ACKs
        self._seen: deque[int] = deque(maxlen=64)
        self._seen_set: set[int] = set()

    # -- upper-layer interface ------------------------------------------------

    def send(self, dst: Optional[int], payload: object,
             payload_bits: int) -> bool:
        """Queue a data frame to ``dst`` (``None`` broadcasts).

        Returns False (and traces ``mac.queue_drop``) if the queue is full.
        """
        if len(self._queue) >= self.params.queue_capacity:
            self.trace.emit(self.sim.now, "mac.queue_drop", node=self.node)
            return False
        frame = PhyFrame(_DATA, self.node, dst,
                         payload_bits + DATA_HEADER_BITS, payload)
        self._queue.append(frame)
        self._maybe_begin_access()
        return True

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # -- access procedure ---------------------------------------------------

    def _maybe_begin_access(self) -> None:
        if self._current is not None or not self._queue:
            return
        self._current = self._queue[0]
        self._retries = 0
        self._cw = self.params.cw_min
        self._draw_backoff()
        self._reschedule_countdown()

    def _draw_backoff(self) -> None:
        self._backoff_slots = int(self.rng.integers(0, self._cw + 1))

    def _medium_busy(self) -> bool:
        """Physical carrier sense OR'd with the NAV."""
        return (self.channel.medium_busy(self.node)
                or self.sim.now < self._nav_until)

    def _set_nav(self, until: float) -> None:
        """Extend the NAV and arrange to resume access when it expires."""
        if until <= self._nav_until:
            return
        self._nav_until = until
        self._freeze_countdown()
        if self._nav_wakeup is not None:
            self._nav_wakeup.cancel()
        self._nav_wakeup = self.sim.schedule_at(until,
                                                self.on_medium_change)

    def _reschedule_countdown(self) -> None:
        """(Re)arm the DIFS + backoff countdown if the medium is idle."""
        self._cancel_countdown()
        if self._current is None or self._awaiting_ack_for is not None \
                or self._awaiting_cts_for is not None:
            return
        if self._medium_busy():
            return  # on_medium_change re-arms when the medium frees up
        assert self._backoff_slots is not None
        delay = (self.params.difs_s
                 + self._backoff_slots * self.params.slot_time_s)
        self._countdown_start = self.sim.now
        self._access_event = self.sim.schedule(delay, self._countdown_fired)

    def _cancel_countdown(self) -> None:
        if self._access_event is not None:
            self._access_event.cancel()
            self._access_event = None

    def _freeze_countdown(self) -> None:
        """Medium went busy mid-countdown: bank fully elapsed backoff slots."""
        if self._access_event is None or self._countdown_start is None:
            return
        elapsed = self.sim.now - self._countdown_start - self.params.difs_s
        if elapsed > 0 and self._backoff_slots:
            decremented = min(self._backoff_slots,
                              int(elapsed / self.params.slot_time_s))
            self._backoff_slots -= decremented
        self._cancel_countdown()

    def _countdown_fired(self) -> None:
        self._access_event = None
        if self._current is None:
            return
        if self._medium_busy():  # pragma: no cover - defensive
            self._reschedule_countdown()
            return
        self._backoff_slots = 0
        self._transmit_current()

    def _uses_rts(self, frame: PhyFrame) -> bool:
        threshold = self.params.rts_threshold_bits
        return (threshold is not None and not frame.is_broadcast
                and frame.size_bits > threshold)

    def _transmit_current(self) -> None:
        frame = self._current
        assert frame is not None
        if self._uses_rts(frame):
            self._transmit_rts(frame)
        else:
            self._transmit_data(frame)

    def _transmit_data(self, frame: PhyFrame) -> None:
        duration = self.params.phy.airtime(frame.size_bits)
        self.channel.transmit(self.node, frame, duration)
        self._transmitting_until = self.sim.now + duration
        self.trace.emit(self.sim.now, "mac.tx_data", node=self.node,
                        frame=frame.frame_id, retries=self._retries)
        if frame.is_broadcast:
            self.sim.schedule(duration, self._broadcast_done)
        else:
            self._awaiting_ack_for = frame.frame_id
            self._ack_timeout_event = self.sim.schedule(
                duration + self.params.ack_timeout_s(), self._ack_timeout)

    # -- RTS/CTS ------------------------------------------------------------

    def _exchange_tail_s(self, data_frame: PhyFrame) -> float:
        """Time from the end of a CTS to the end of the final ACK."""
        phy = self.params.phy
        return (self.params.sifs_s + phy.airtime(data_frame.size_bits)
                + self.params.sifs_s + phy.airtime(ACK_BITS, basic_rate=True)
                + 3 * phy.propagation_delay_s)

    def _transmit_rts(self, data_frame: PhyFrame) -> None:
        phy = self.params.phy
        cts_air = phy.airtime(CTS_BITS, basic_rate=True)
        # NAV advertised in the RTS: from RTS end to ACK end
        nav = (self.params.sifs_s + cts_air + phy.propagation_delay_s
               + self._exchange_tail_s(data_frame))
        rts = PhyFrame(_RTS, self.node, data_frame.dst, RTS_BITS,
                       payload=(data_frame.frame_id, nav))
        duration = phy.airtime(RTS_BITS, basic_rate=True)
        self.channel.transmit(self.node, rts, duration)
        self._transmitting_until = self.sim.now + duration
        self.trace.emit(self.sim.now, "mac.tx_rts", node=self.node,
                        frame=data_frame.frame_id, retries=self._retries)
        self._awaiting_cts_for = data_frame.frame_id
        timeout = (duration + self.params.sifs_s + cts_air
                   + 2 * phy.propagation_delay_s + self.params.slot_time_s)
        self._cts_timeout_event = self.sim.schedule(timeout,
                                                    self._cts_timeout)

    def _cts_timeout(self) -> None:
        self._cts_timeout_event = None
        self._awaiting_cts_for = None
        self.trace.emit(self.sim.now, "mac.cts_timeout", node=self.node)
        self._ack_timeout()  # identical retry/backoff handling

    def _send_cts(self, rts: PhyFrame) -> None:
        data_frame_id, rts_nav = rts.payload
        phy = self.params.phy
        cts_air = phy.airtime(CTS_BITS, basic_rate=True)
        # CTS NAV: what remains of the exchange after this CTS ends
        nav = max(0.0, rts_nav - self.params.sifs_s - cts_air
                  - phy.propagation_delay_s)
        cts = PhyFrame(_CTS, self.node, rts.src, CTS_BITS,
                       payload=(data_frame_id, nav))
        if self.channel.transmitting(self.node):
            self.trace.emit(self.sim.now, "mac.cts_suppressed",
                            node=self.node)
            return
        self.channel.transmit(self.node, cts, cts_air)

    def _cts_received(self) -> None:
        """Our CTS arrived: ship the pending data frame after SIFS."""
        if self._cts_timeout_event is not None:
            self._cts_timeout_event.cancel()
            self._cts_timeout_event = None
        self._awaiting_cts_for = None
        self.sim.schedule(self.params.sifs_s, self._cts_cleared)

    def _cts_cleared(self) -> None:
        if self._current is not None:
            self._transmit_data(self._current)

    def _broadcast_done(self) -> None:
        self._finish_current(succeeded=True)

    def _finish_current(self, succeeded: bool) -> None:
        frame = self._current
        if frame is not None and self._queue and self._queue[0] is frame:
            self._queue.popleft()
        if frame is not None and not succeeded:
            self.trace.emit(self.sim.now, "mac.drop", node=self.node,
                            frame=frame.frame_id)
        self._current = None
        self._awaiting_ack_for = None
        self._awaiting_cts_for = None
        if self._cts_timeout_event is not None:
            self._cts_timeout_event.cancel()
            self._cts_timeout_event = None
        self._backoff_slots = None
        self._maybe_begin_access()

    # -- ACK handling --------------------------------------------------------

    def _ack_timeout(self) -> None:
        self._ack_timeout_event = None
        self._awaiting_ack_for = None
        self._retries += 1
        if self._retries > self.params.retry_limit:
            self._finish_current(succeeded=False)
            return
        self.trace.emit(self.sim.now, "mac.retry", node=self.node,
                        retries=self._retries)
        self._cw = min(2 * self._cw + 1, self.params.cw_max)
        self._draw_backoff()
        self._reschedule_countdown()

    def _send_ack(self, data_frame: PhyFrame) -> None:
        ack = PhyFrame(_ACK, self.node, data_frame.src, ACK_BITS,
                       payload=data_frame.frame_id)
        if self.channel.transmitting(self.node):
            # Half-duplex clash with our own pending transmission; the data
            # sender will time out and retry.
            self.trace.emit(self.sim.now, "mac.ack_suppressed", node=self.node)
            return
        self.channel.transmit(
            self.node, ack,
            self.params.phy.airtime(ACK_BITS, basic_rate=True))

    # -- ChannelClient --------------------------------------------------------

    def on_receive(self, frame: PhyFrame, success: bool) -> None:
        if not success:
            return
        kind = frame.kind
        if kind is _ACK:
            if (frame.dst == self.node
                    and frame.payload == self._awaiting_ack_for):
                if self._ack_timeout_event is not None:
                    self._ack_timeout_event.cancel()
                    self._ack_timeout_event = None
                self._finish_current(succeeded=True)
            return
        if kind is _RTS:
            if frame.dst == self.node:
                self.sim.schedule(self.params.sifs_s, self._send_cts, frame)
            else:
                ____, nav = frame.payload
                self._set_nav(self.sim.now + nav)
            return
        if kind is _CTS:
            if (frame.dst == self.node
                    and frame.payload[0] == self._awaiting_cts_for):
                self._cts_received()
            elif frame.dst != self.node:
                ____, nav = frame.payload
                self._set_nav(self.sim.now + nav)
            return
        if kind is not _DATA:
            return
        if frame.dst == self.node:
            self.sim.schedule(self.params.sifs_s, self._send_ack, frame)
        if frame.dst == self.node or frame.is_broadcast:
            if frame.frame_id in self._seen_set:
                return  # duplicate after a lost ACK
            if len(self._seen) == self._seen.maxlen:
                self._seen_set.discard(self._seen[0])
            self._seen.append(frame.frame_id)
            self._seen_set.add(frame.frame_id)
            self.trace.emit(self.sim.now, "mac.deliver", node=self.node,
                            frame=frame.frame_id)
            self.deliver(self.node, frame.payload)

    def on_medium_change(self) -> None:
        # Sense only when the answer can matter: an armed countdown may
        # have to freeze; an unarmed one may arm, but only while a frame
        # waits and no ACK/CTS is awaited -- most calls reach an idle or
        # waiting station and return here.
        if self._access_event is not None:
            if self._medium_busy():
                self._freeze_countdown()
        elif self._current is not None and self._awaiting_ack_for is None \
                and self._awaiting_cts_for is None:
            self._reschedule_countdown()

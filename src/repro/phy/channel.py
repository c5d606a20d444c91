"""Shared broadcast medium with protocol-model collisions.

The channel implements the classic protocol interference model on the
topology's connectivity graph: every transmission is heard by all radio
neighbours of the transmitter; two receptions overlapping in time at the
same receiver corrupt each other; a node cannot receive while transmitting
(half-duplex).  By default carrier sense range equals communication range
(the 802.16 mesh 2-hop conflict model in :mod:`repro.core.conflict` is the
scheduling abstraction of exactly this channel);
:meth:`BroadcastChannel.set_physical_couplings` widens the medium with
SINR-derived sense and jamming pairs so the DCF baseline exhibits real
hidden-node collisions (see :mod:`repro.phy.models` and
docs/interference.md).

MAC layers attach a :class:`ChannelClient` per node and get up to two
callbacks:

- ``on_receive(frame, success)`` when a reception finishes;
- ``on_medium_change()`` whenever the busy/idle state at the node may have
  changed (used by CSMA backoff logic, which polls :meth:`BroadcastChannel.
  medium_busy`).  Optional: a client that does not override it is never
  notified.

Each transmission costs the event kernel at most three events, however
many nodes hear it: an *arrival-start* edge that notifies every sensing
receiver and coupled node that energy appeared, an *arrival-end* edge
that delivers every reception and notifies the sensing coupled nodes that
it cleared, and the transmitter's own ``tx_end`` notification.  An edge
with nothing to do is not scheduled, so a heard TDMA-overlay transmission
(no client senses) costs one event.  :meth:`BroadcastChannel.transmit`
explains why this batching fires the callbacks in exactly the order that
one event per receiver would.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.net.topology import MeshTopology
from repro.phy.frames import PhyFrame
from repro.phy.radio import PhyParams
from repro.sim.engine import Simulator
from repro.sim.trace import Trace


class ChannelClient:
    """Interface MAC layers implement to hang off the channel."""

    def on_receive(self, frame: PhyFrame, success: bool) -> None:
        """A reception finished at this node (corrupted if not success)."""
        raise NotImplementedError

    def on_medium_change(self) -> None:
        """The busy/idle state at this node may have changed.

        Optional: only clients whose class overrides this method are
        notified (:meth:`BroadcastChannel.attach` checks once).  A
        schedule-driven MAC such as the TDMA overlay leaves it alone, and
        the channel spends no kernel events on its medium edges.
        """


@dataclass(slots=True)
class Reception:
    """An in-flight reception at one receiver."""

    frame: PhyFrame
    receiver: int
    start: float
    end: float
    corrupted: bool = False
    #: why it was corrupted, for tracing ("collision", "rx_during_tx")
    corrupt_reason: Optional[str] = None

    def overlaps(self, start: float, end: float) -> bool:
        return self.start < end and start < self.end


@dataclass(slots=True)
class _NodeState:
    client: Optional[ChannelClient] = None
    #: the client's bound ``on_medium_change`` if it carrier-senses, else
    #: None
    sense: Optional[Callable[[], None]] = None
    #: active/pending receptions at this node
    receptions: list[Reception] = field(default_factory=list)
    #: (start, end) transmission intervals in time order, pruned lazily
    #: from the left
    transmissions: deque[tuple[float, float]] = field(default_factory=deque)
    #: (start, end) sensed-but-undecodable energy from carrier-sense-range
    #: transmitters (physical couplings); busies the medium, harms nothing
    noise: list[tuple[float, float]] = field(default_factory=list)
    #: (start, end) corrupting energy from out-of-decode-range interferers
    #: (hidden-node couplings); busies the medium *and* corrupts overlapping
    #: receptions
    jam: list[tuple[float, float]] = field(default_factory=list)


class BroadcastChannel:
    """The shared medium for one mesh (one radio, one channel).

    Parameters
    ----------
    sim:
        The event kernel.
    topology:
        Radio connectivity; transmissions reach exactly the graph neighbours.
    phy:
        Timing parameters (propagation delay).
    trace:
        Optional shared trace; emits ``phy.tx``, ``phy.rx_ok``,
        ``phy.rx_collision`` and ``phy.rx_during_tx`` records.
    """

    def __init__(self, sim: Simulator, topology: MeshTopology,
                 phy: PhyParams, trace: Optional[Trace] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.phy = phy
        self.trace = trace if trace is not None else Trace(enabled=False)
        self._nodes: dict[int, _NodeState] = {
            node: _NodeState() for node in topology.nodes}
        #: per node, ``(neighbour, state)`` in ``topology.neighbors``
        #: order; the topology is read once, here
        self._neighbors: dict[int, tuple[tuple[int, _NodeState], ...]] = {
            node: tuple((neighbor, self._nodes[neighbor])
                        for neighbor in topology.neighbors(node))
            for node in topology.nodes}
        #: optional random-loss model; see :meth:`set_error_model`
        self._error_rng = None
        self._error_rates: dict[tuple[int, int], float] = {}
        self._default_error_rate = 0.0
        #: optional control-plane-only loss model; see
        #: :meth:`set_control_error_model`
        self._control_error_rng = None
        self._control_error_rates: dict[tuple[int, int], float] = {}
        self._default_control_error_rate = 0.0
        #: fault-injection state; see :meth:`set_node_down` / :meth:`set_link_down`
        self._down_nodes: set[int] = set()
        self._down_links: set[frozenset[int]] = set()
        #: physical-model couplings beyond the connectivity graph; see
        #: :meth:`set_physical_couplings`
        self._sense_extra: dict[int, set[int]] = {}
        self._jam_extra: dict[int, set[int]] = {}

    def set_physical_couplings(self, couplings=None, *,
                               sense_pairs=None, jam_pairs=None) -> None:
        """Widen the channel beyond the graph with SINR-derived couplings.

        ``couplings`` is a :class:`~repro.phy.models.ChannelCouplings`
        (e.g. from :meth:`~repro.phy.models.SinrModel.channel_couplings`);
        alternatively pass the pair sets directly.  ``sense_pairs`` are
        undirected non-neighbour node pairs within carrier-sense range:
        each hears the other's transmissions as busy medium (so CSMA
        defers) without receiving anything.  ``jam_pairs`` are directed
        ``(interferer, victim)`` pairs whose transmissions additionally
        corrupt receptions overlapping them at the victim -- the
        hidden-node failure mode the 2-hop protocol channel cannot
        express.  Replaces any previously installed couplings; with none
        installed the channel is exactly the protocol-model medium.
        """
        if couplings is not None:
            if sense_pairs is not None or jam_pairs is not None:
                raise ConfigurationError(
                    "pass couplings= or explicit pair sets, not both")
            sense_pairs = couplings.sense_pairs
            jam_pairs = couplings.jam_pairs
        sense: dict[int, set[int]] = {}
        jam: dict[int, set[int]] = {}
        for u, v in (sense_pairs or ()):
            self._state(u), self._state(v)  # validate node ids
            if v in self.topology.rows[u]:
                raise ConfigurationError(
                    f"sense pair ({u}, {v}) are radio neighbours; the "
                    "graph already delivers between them")
            sense.setdefault(u, set()).add(v)
            sense.setdefault(v, set()).add(u)
        for tx, victim in (jam_pairs or ()):
            self._state(tx), self._state(victim)
            if victim in self.topology.rows[tx] or tx == victim:
                raise ConfigurationError(
                    f"jam pair ({tx}, {victim}) are radio neighbours; "
                    "the graph already collides between them")
            jam.setdefault(tx, set()).add(victim)
        self._sense_extra = sense
        self._jam_extra = jam

    def set_error_model(self, rng, default_error_rate: float = 0.0,
                        per_link: Optional[dict[tuple[int, int], float]]
                        = None) -> None:
        """Inject random reception losses (fading, noise bursts).

        Each otherwise-successful reception on directed pair
        ``(transmitter, receiver)`` is independently lost with the pair's
        error rate (``per_link`` overrides the default).  Collisions and
        half-duplex losses are unaffected -- this models channel error on
        top of them, the condition under which the TDMA overlay (no ARQ)
        and DCF (ARQ) diverge (experiment E13).
        """
        if not 0.0 <= default_error_rate < 1.0:
            raise ConfigurationError("error rate must be in [0, 1)")
        for pair, rate in (per_link or {}).items():
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"error rate {rate} for {pair}")
        self._error_rng = rng
        self._default_error_rate = default_error_rate
        self._error_rates = dict(per_link or {})

    def update_link_error_rates(
            self, rates: dict[tuple[int, int], float]) -> None:
        """Step per-link error rates mid-run (fault-injection hook).

        Merges ``rates`` into the per-link overrides installed by
        :meth:`set_error_model`, which must have been called first (the
        channel needs its loss RNG).  Directed pairs; a rate of 0.0 pins
        the pair back to lossless regardless of the default.
        """
        if self._error_rng is None:
            raise ConfigurationError(
                "call set_error_model() before update_link_error_rates() "
                "so the channel has a loss RNG")
        for pair, rate in rates.items():
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"error rate {rate} for {pair}")
        self._error_rates.update(rates)

    #: frame kinds the control-plane loss model applies to
    CONTROL_KINDS = frozenset({"beacon", "control"})

    def set_control_error_model(self, rng,
                                default_error_rate: float = 0.0,
                                per_link: Optional[dict[tuple[int, int],
                                                        float]] = None
                                ) -> None:
        """Inject random losses on *control-plane* receptions only.

        Applies to sync beacons and schedule announcements (frame kinds in
        :data:`CONTROL_KINDS`) on top of -- and independently of -- the
        all-traffic model of :meth:`set_error_model`: a control reception
        survives only both draws.  A dedicated RNG keeps the data-plane
        loss sequence untouched when control loss is swept (E18's axis).
        """
        if not 0.0 <= default_error_rate < 1.0:
            raise ConfigurationError("error rate must be in [0, 1)")
        for pair, rate in (per_link or {}).items():
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"error rate {rate} for {pair}")
        self._control_error_rng = rng
        self._default_control_error_rate = default_error_rate
        self._control_error_rates = dict(per_link or {})

    def update_control_error_rates(
            self, rates: dict[tuple[int, int], float]) -> None:
        """Step per-link *control* error rates mid-run (``control_loss``
        fault hook).

        Merges into the overrides installed by
        :meth:`set_control_error_model`, which must have been called first.
        Directed pairs; 0.0 pins a pair back to lossless control delivery.
        """
        if self._control_error_rng is None:
            raise ConfigurationError(
                "call set_control_error_model() before "
                "update_control_error_rates() so the channel has a "
                "control-loss RNG")
        for pair, rate in rates.items():
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"error rate {rate} for {pair}")
        self._control_error_rates.update(rates)

    # -- fault-injection hooks ---------------------------------------------

    def set_node_down(self, node: int, down: bool = True) -> None:
        """Crash or recover a radio (fault-injection hook).

        A down node radiates nothing when its MAC transmits (the airtime is
        still accounted, so slot timing upstream is unchanged) and hears
        nothing -- no receptions are created at it, so its MAC gets no
        callbacks.  Upper layers need no crash-awareness: the fault lives
        entirely at the PHY, exactly as a powered-off radio would.
        """
        self._state(node)  # validate the node id
        if down:
            self._down_nodes.add(node)
        else:
            self._down_nodes.discard(node)
        self.trace.emit(self.sim.now,
                        "phy.node_down" if down else "phy.node_up",
                        node=node)

    def node_is_down(self, node: int) -> bool:
        return node in self._down_nodes

    def set_link_down(self, pair: tuple[int, int],
                      down: bool = True) -> None:
        """Sever or restore one undirected radio link (fault-injection hook).

        While down, frames simply do not propagate across the pair in either
        direction -- as if the nodes moved out of range.  Both endpoints
        otherwise behave normally.
        """
        u, v = pair
        if not self.topology.has_link((u, v)):
            raise ConfigurationError(
                f"({u}, {v}) is not a link of {self.topology.name}")
        key = frozenset((u, v))
        if down:
            self._down_links.add(key)
        else:
            self._down_links.discard(key)
        self.trace.emit(self.sim.now,
                        "phy.link_down" if down else "phy.link_up",
                        node=u, peer=v)

    def link_is_down(self, pair: tuple[int, int]) -> bool:
        return frozenset(pair) in self._down_links

    def attach(self, node: int, client: ChannelClient) -> None:
        """Register the MAC entity for ``node``."""
        state = self._state(node)
        if state.client is not None:
            raise ConfigurationError(f"node {node} already has a MAC attached")
        state.client = client
        if type(client).on_medium_change is not \
                ChannelClient.on_medium_change:
            state.sense = client.on_medium_change

    def _state(self, node: int) -> _NodeState:
        try:
            return self._nodes[node]
        except KeyError:
            raise ConfigurationError(f"unknown node {node}") from None

    # -- carrier sense ------------------------------------------------------

    def transmitting(self, node: int) -> bool:
        """True iff ``node`` is on air right now.

        A node's transmissions are appended at the current time and never
        overlap (:meth:`transmit` refuses to start one while another is on
        air), so only the last one can still be on air.
        """
        transmissions = self._state(node).transmissions
        if not transmissions:
            return False
        start, end = transmissions[-1]
        return start <= self.sim.now < end

    def medium_busy(self, node: int) -> bool:
        """Carrier-sense result at ``node``: any energy on air it can hear.

        With physical couplings installed, sensed energy includes noise
        from carrier-sense-range transmitters and jamming interferers --
        not just decodable receptions.
        """
        state = self._state(node)
        now = self.sim.now
        transmissions = state.transmissions
        if transmissions:
            start, end = transmissions[-1]
            if start <= now < end:
                return True
        for rec in state.receptions:
            if rec.start <= now < rec.end:
                return True
        for start, end in state.noise:
            if start <= now < end:
                return True
        for start, end in state.jam:
            if start <= now < end:
                return True
        return False

    def busy_until(self, node: int) -> float:
        """Latest end time of anything currently on air at ``node``.

        Returns the current time when the medium is idle.
        """
        now = self.sim.now
        latest = now
        state = self._state(node)
        if self.transmitting(node):
            latest = state.transmissions[-1][1]
        for rec in state.receptions:
            if rec.start <= now < rec.end:
                latest = max(latest, rec.end)
        for start, end in state.noise:
            if start <= now < end:
                latest = max(latest, end)
        for start, end in state.jam:
            if start <= now < end:
                latest = max(latest, end)
        return latest

    # -- transmission ---------------------------------------------------------

    def transmit(self, node: int, frame: PhyFrame,
                 duration: Optional[float] = None) -> float:
        """Put ``frame`` on air from ``node``; returns the airtime used.

        The MAC is responsible for medium access rules; the channel only
        enforces physics (no two simultaneous transmissions from one radio,
        and a positive, finite airtime).  A rejected transmission raises
        :class:`SimulationError` before any channel state changes.

        All receptions and coupled nodes of the transmission share two
        kernel events, :meth:`_arrival_start` and :meth:`_arrival_end`,
        instead of one notify and one deliver event per receiver.  The
        callbacks still fire in the order per-receiver events would fire
        them.  Those events were scheduled back to back in one call, so
        they held consecutive sequence numbers: no other event sorts
        between two of them at the same instant, and any event their
        callbacks schedule sorts after all of them.  Per instant they
        fired in scheduling order -- receivers in ``topology.neighbors``
        order, then jam victims, then sense watchers -- which is the
        order the batched edge walks.  Because the airtime is positive,
        the start edges of one transmission all sort before its end
        edges, so splitting them into two events loses no interleaving;
        with zero propagation delay the end edge still sorts before the
        ``tx_end`` notification, which is scheduled after it.

        Only sensing clients are notified, so an edge is scheduled only
        when it has work: the start edge when some receiver or coupled
        node senses, the end edge when there is a reception to deliver or
        a sensing coupled node, ``tx_end`` when the transmitter senses.
        Dropping an event that would call nothing cannot reorder the
        rest: sequence numbers stay monotonic.
        """
        state = self._state(node)
        if frame.src != node:
            raise SimulationError(
                f"frame src {frame.src} transmitted by node {node}")
        now = self.sim.now
        transmissions = state.transmissions
        if transmissions and \
                transmissions[-1][0] <= now < transmissions[-1][1]:
            raise SimulationError(f"node {node} is already transmitting")
        # ``_value_`` is the member's plain value attribute; ``.value`` is
        # an enum descriptor costing ten times as much per frame
        kind = frame.kind._value_
        if duration is None:
            duration = self.phy.airtime(
                frame.size_bits, basic_rate=kind != "data")
        if not 0.0 < duration < math.inf:
            raise SimulationError(
                f"airtime must be positive and finite, got {duration}")
        if node in self._down_nodes:
            # Crashed radio: the MAC's transmit attempt consumes its slot
            # time but nothing reaches the air.
            self.trace.emit(now, "phy.tx_suppressed", node=node,
                            frame=frame.frame_id, kind=kind)
            return duration
        tx_start, tx_end = now, now + duration
        prune = self._prune
        prune(state, now)
        transmissions.append((tx_start, tx_end))
        self.trace.emit(now, "phy.tx", node=node, frame=frame.frame_id,
                        kind=kind, duration=duration)

        # A transmission corrupts any reception in progress at the
        # transmitter (half-duplex): mark them now.
        for rec in state.receptions:
            if rec.start < tx_end and tx_start < rec.end \
                    and not rec.corrupted:
                rec.corrupted = True
                rec.corrupt_reason = "rx_during_tx"

        sense = state.sense
        if sense is not None:
            sense()
        prop = self.phy.propagation_delay_s
        arrival_start, arrival_end = tx_start + prop, tx_end + prop
        down_nodes, down_links = self._down_nodes, self._down_links
        receptions: list[Reception] = []
        # sensing receivers, then (below) sensing coupled nodes
        start_notify: list[Callable[[], None]] = []
        for neighbor, receiver_state in self._neighbors[node]:
            if neighbor in down_nodes or (
                    down_links and frozenset((node, neighbor)) in down_links):
                continue
            prune(receiver_state, now)
            reception = Reception(frame, neighbor, arrival_start, arrival_end)
            # Pairwise collision with any overlapping reception at this
            # receiver: both frames are lost.
            for other in receiver_state.receptions:
                if other.start < arrival_end and arrival_start < other.end:
                    other.corrupted = True
                    other.corrupt_reason = other.corrupt_reason or "collision"
                    reception.corrupted = True
                    reception.corrupt_reason = "collision"
            # Jamming energy already on air at this receiver (from an
            # out-of-decode-range interferer) corrupts the new reception.
            if not reception.corrupted:
                for start, end in receiver_state.jam:
                    if arrival_start < end and start < arrival_end:
                        reception.corrupted = True
                        reception.corrupt_reason = "interference"
                        self.trace.emit(now, "phy.jam", node=neighbor)
                        break
            receiver_state.receptions.append(reception)
            receptions.append(reception)
            if receiver_state.sense is not None:
                start_notify.append(receiver_state.sense)
        # Physical couplings beyond the graph: jamming interferers corrupt
        # in-flight receptions at their victims; carrier-sense-range
        # watchers merely see a busy medium.  Both get notify edges so
        # CSMA backoff reacts to the energy appearing and clearing.
        coupled: list[Callable[[], None]] = []
        for victim in self._jam_extra.get(node, ()):
            if victim in down_nodes:
                continue
            victim_state = self._nodes[victim]
            prune(victim_state, now)
            victim_state.jam.append((arrival_start, arrival_end))
            # phy.jam traces actual damage (a reception corrupted by
            # out-of-decode-range energy), not every jam interval -- the
            # E23 jam column would otherwise count harmless energy.
            for rec in victim_state.receptions:
                if rec.overlaps(arrival_start, arrival_end) \
                        and not rec.corrupted:
                    rec.corrupted = True
                    rec.corrupt_reason = "interference"
                    self.trace.emit(now, "phy.jam", node=victim,
                                    source=node)
            if victim_state.sense is not None:
                coupled.append(victim_state.sense)
        for watcher in self._sense_extra.get(node, ()):
            if watcher in down_nodes \
                    or watcher in self._jam_extra.get(node, ()):
                continue  # jam energy already busies the victim's medium
            watcher_state = self._nodes[watcher]
            prune(watcher_state, now)
            watcher_state.noise.append((arrival_start, arrival_end))
            if watcher_state.sense is not None:
                coupled.append(watcher_state.sense)
        start_notify += coupled
        if start_notify:
            self.sim.schedule_at(arrival_start, self._arrival_start,
                                 start_notify)
        if receptions or coupled:
            self.sim.schedule_at(arrival_end, self._arrival_end,
                                 receptions, coupled)
        # Transmitter's own medium goes idle at tx_end.
        if sense is not None:
            self.sim.schedule_at(tx_end, sense)
        return duration

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _arrival_start(notify: list[Callable[[], None]]) -> None:
        """Energy of one transmission reaches its sensing receivers and
        couplings."""
        for on_medium_change in notify:
            on_medium_change()

    def _arrival_end(self, receptions: list[Reception],
                     coupled: list[Callable[[], None]]) -> None:
        """One transmission's energy clears: deliver, then notify the
        sensing couplings."""
        for reception in receptions:
            self._deliver(reception)
        for on_medium_change in coupled:
            on_medium_change()

    def _deliver(self, reception: Reception) -> None:
        state = self._nodes[reception.receiver]
        receptions = state.receptions
        for index, pending in enumerate(receptions):
            if pending is reception:
                del receptions[index]
                break
        if reception.receiver in self._down_nodes:
            # The receiver crashed while the frame was in flight: drop it
            # without a MAC callback, as set_node_down() promises.
            self.trace.emit(self.sim.now, "phy.rx_node_down",
                            node=reception.receiver,
                            frame=reception.frame.frame_id,
                            kind=reception.frame.kind.value)
            return
        # Half-duplex: if the receiver transmitted at any point during the
        # reception window, the frame is lost (the mark may have been set by
        # transmit(); re-check for transmissions that started mid-window).
        # Own transmissions are in time order and disjoint, so walk back
        # from the latest and stop at the first that ended before the
        # reception began: every earlier one ended earlier still.
        if not reception.corrupted:
            for start, end in reversed(state.transmissions):
                if end <= reception.start:
                    break
                if start < reception.end:
                    reception.corrupted = True
                    reception.corrupt_reason = "rx_during_tx"
                    break
        if not reception.corrupted and self._error_rng is not None:
            pair = (reception.frame.src, reception.receiver)
            rate = self._error_rates.get(pair, self._default_error_rate)
            if rate > 0.0 and self._error_rng.random() < rate:
                reception.corrupted = True
                reception.corrupt_reason = "channel_error"
        if (not reception.corrupted
                and self._control_error_rng is not None
                and reception.frame.kind._value_ in self.CONTROL_KINDS):
            pair = (reception.frame.src, reception.receiver)
            rate = self._control_error_rates.get(
                pair, self._default_control_error_rate)
            if rate > 0.0 and self._control_error_rng.random() < rate:
                reception.corrupted = True
                reception.corrupt_reason = "control_loss"
        success = not reception.corrupted
        category = ("phy.rx_ok" if success
                    else f"phy.rx_{reception.corrupt_reason}")
        self.trace.emit(self.sim.now, category, node=reception.receiver,
                        frame=reception.frame.frame_id,
                        kind=reception.frame.kind._value_)
        client = state.client
        if state.sense is not None:
            state.sense()
        if client is not None:
            client.on_receive(reception.frame, success)

    @staticmethod
    def _prune(state: _NodeState, now: float) -> None:
        """Drop transmission intervals that can no longer affect anything.

        A past transmission only matters while some reception window could
        still overlap it, and no frame stays on air longer than ~20 ms in
        any profile this library models; a 50 ms grace period is generous.
        Carrier sense reads only the latest own transmission; the grace
        period bounds what is still scanned: the half-duplex walk in
        :meth:`_deliver` and the noise and jam lists that
        :meth:`medium_busy`, :meth:`busy_until` and :meth:`transmit` read
        in full.

        A node's own transmissions are appended in time order and never
        overlap, so their end times are sorted too: the expired ones are a
        prefix of the deque, popped from the left until the head is live.
        That keeps exactly the intervals a filter would.  Noise and jam
        intervals come from different transmitters, each starting when
        its own frame does, so their end times are not sorted and an
        expired one can sit behind a live one: those lists are filtered
        whole.
        """
        horizon = now - 0.05
        transmissions = state.transmissions
        while transmissions and transmissions[0][1] < horizon:
            transmissions.popleft()
        if state.noise and state.noise[0][1] < horizon:
            state.noise = [(s, e) for s, e in state.noise if e >= horizon]
        if state.jam and state.jam[0][1] < horizon:
            state.jam = [(s, e) for s, e in state.jam if e >= horizon]

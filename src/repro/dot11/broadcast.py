"""The raw broadcast primitive the TDMA overlay drives.

Commodity 802.11 hardware can transmit broadcast frames with no ACK and no
retransmission; with the contention window forced to zero (as the paper's
MadWifi modification does) the frame goes on air as soon as the medium is
free.  Since the TDMA schedule guarantees at most one transmitter per slot
in every conflict neighbourhood, carrier sense never actually defers -- but
a *mis-synchronized* node can slip its transmission into a neighbour's slot
and collide, which is precisely the failure mode guard times must absorb
(experiments E4/E8).

:class:`RawBroadcastMac` therefore transmits at the requested instant and
lets the channel decide what collides.  It does not carrier-sense, so it
leaves :meth:`~repro.phy.channel.ChannelClient.on_medium_change` alone.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.phy.channel import BroadcastChannel, ChannelClient
from repro.phy.frames import FrameKind, PhyFrame
from repro.sim.engine import Simulator
from repro.sim.trace import Trace


class RawBroadcastMac(ChannelClient):
    """No-backoff, no-ACK broadcast MAC (one per node).

    Parameters
    ----------
    deliver:
        Callback ``deliver(node, frame, success)`` for every reception that
        finishes at this node, including corrupted ones (the overlay counts
        slot collisions).
    """

    def __init__(self, sim: Simulator, channel: BroadcastChannel, node: int,
                 deliver: Callable[[int, PhyFrame, bool], None],
                 trace: Optional[Trace] = None) -> None:
        self.sim = sim
        self.channel = channel
        self.node = node
        self.deliver = deliver
        self.trace = trace if trace is not None else Trace(enabled=False)
        channel.attach(node, self)

    def broadcast(self, payload: object, size_bits: int,
                  kind: FrameKind = FrameKind.DATA,
                  duration: Optional[float] = None) -> bool:
        """Transmit immediately; returns False if the radio was mid-frame.

        A False return means the caller's slot timing made two of this
        node's own transmissions overlap (a scheduling bug or an extreme
        sync error); the frame is dropped, as real hardware would refuse it.
        Any other channel error (say, a non-positive airtime) propagates.
        """
        if self.channel.transmitting(self.node):
            self.trace.emit(self.sim.now, "raw.tx_overrun", node=self.node)
            return False
        frame = PhyFrame(kind, self.node, None, size_bits, payload)
        self.channel.transmit(self.node, frame, duration)
        return True

    def on_receive(self, frame: PhyFrame, success: bool) -> None:
        self.deliver(self.node, frame, success)

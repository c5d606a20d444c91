"""The TDMA-over-WiFi emulation MAC.

Each node runs a software frame loop against its *own* drifting clock:

1. at every local frame boundary it plans the frame: its control
   opportunities (sync beacons) and the data slots of the links it
   transmits on (from the TDMA :class:`~repro.core.schedule.Schedule`);
2. each transmission starts one guard interval after the local slot edge
   and must fit inside the slot minus the guard;
3. received beacons may *step* the local clock, after which the node
   replans its pending slot timers from the corrected clock.

Nothing here prevents a badly synchronized node from transmitting into a
neighbour's slot -- the shared channel then corrupts both frames, exactly
as on hardware.  The emulation's correctness claim (slot adherence given
an adequate guard) is therefore *measured*, not assumed: E8 reads the sync
error and ``tdma.rx_corrupt`` counts off the same machinery.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro import obs
from repro.core.schedule import Schedule
from repro.dot11.params import ACK_BITS, DATA_HEADER_BITS
from repro.errors import ConfigurationError
from repro.mesh16.frame import MeshFrameConfig
from repro.mesh16.messages import ScheduleAnnouncement, SyncBeacon
from repro.mesh16.network import ControlPlane
from repro.net.packet import Packet
from repro.net.topology import Link, MeshTopology
from repro.overlay.shim import Reassembler, ShimFragment, fragment_packet
from repro.overlay.sync import SyncConfig, SyncDaemon
from repro.phy.channel import BroadcastChannel
from repro.resilience.health import HealthMonitor
from repro.phy.frames import FrameKind, PhyFrame
from repro.dot11.broadcast import RawBroadcastMac
from repro.sim.clock import DriftingClock
from repro.sim.engine import Event, Simulator
from repro.sim.trace import Trace
from repro.units import US

#: receiver turnaround before a slot-level ARQ micro-ACK
ARQ_SIFS_S = 10 * US

# Reading a member off the enum class costs ~0.2 us per access; every
# reception is matched against up to four of them.
_ACK, _BEACON, _CONTROL, _DATA = (FrameKind.ACK, FrameKind.BEACON,
                                  FrameKind.CONTROL, FrameKind.DATA)


class TdmaNode:
    """One node's TDMA MAC state (queues, clock, timers)."""

    def __init__(self, overlay: "TdmaOverlay", node: int,
                 clock: DriftingClock, daemon: SyncDaemon) -> None:
        self.overlay = overlay
        self.node = node
        self.clock = clock
        self.daemon = daemon
        self.mac = RawBroadcastMac(overlay.sim, overlay.channel, node,
                                   deliver=self._on_receive,
                                   trace=overlay.trace)
        #: per outgoing link FIFO of pending fragments
        self.queues: dict[Link, deque[ShimFragment]] = {}
        self.reassembler = Reassembler()
        self._pending: list[Event] = []
        #: (data slot index, link) pairs this node transmits in
        self.tx_slots: list[tuple[int, Link]] = []
        #: ``tx_slots`` as planned, and its ``(slot offset, slot, link)``
        #: rows; rebuilt by :meth:`_plan_frame` when ``tx_slots`` changes
        self._planned_slots: tuple = ()
        self._slot_plan: list[tuple[float, int, Link]] = []
        #: slot-level ARQ state: per link, [fragment, tx attempts so far]
        self._inflight: dict[Link, list] = {}
        #: recently delivered fragment keys, for retransmission dedup
        self._seen_fragments: deque = deque(maxlen=128)
        self._seen_set: set = set()

    # -- queueing ----------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        link = packet.current_link
        if link is None or link[0] != self.node:
            raise ConfigurationError(
                f"packet {packet.packet_id} queued at {self.node} but its "
                f"next link is {link}")
        queue = self.queues.setdefault(link, deque())
        fragments = fragment_packet(
            packet, link, self.overlay.fragment_capacity_bits)
        if (len(queue) + len(fragments)
                > self.overlay.queue_capacity_fragments):
            self.overlay.trace.emit(self.overlay.sim.now, "tdma.queue_drop",
                                    node=self.node, flow=packet.flow)
            obs.counter("overlay.queue_drops").inc()
            return False
        if packet.priority == 0:
            # guaranteed-class fragments jump ahead of any queued elastic
            # traffic sharing this link (but stay behind other guaranteed
            # fragments, preserving per-class FIFO order)
            insert_at = next(
                (i for i, f in enumerate(queue) if f.packet.priority > 0),
                len(queue))
            for offset, fragment in enumerate(fragments):
                queue.insert(insert_at + offset, fragment)
        else:
            queue.extend(fragments)
        return True

    def queued_fragments(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def apply_assignments(self, assignments) -> None:
        """Replace this node's transmit slots (in-band schedule update).

        ``assignments`` is a mapping link -> block or an iterable of
        (link, block) pairs (links may repeat: one reservation per traffic
        class).  Only links transmitted by this node matter here.  Timers
        are re-planned immediately so the new slots take effect from the
        current frame onward.
        """
        pairs = (assignments.items() if hasattr(assignments, "items")
                 else assignments)
        self.tx_slots = []
        for link, block in pairs:
            if link[0] != self.node:
                continue
            for slot in block.slots():
                self.tx_slots.append((slot, link))
        self.tx_slots.sort()
        self.plan_from_now()

    # -- frame planning ------------------------------------------------------

    def start(self) -> None:
        self.plan_from_now()

    def plan_from_now(self, min_frame_index: int = 0) -> None:
        """(Re)build all pending timers from the current clock reading.

        Called at start-up and after every clock step.  Plans the remainder
        of the current local frame plus the boundary of the next one.

        ``min_frame_index`` guarantees forward progress when a frame
        boundary fires: converting the boundary's local time to simulator
        time and back can land a float epsilon *before* the boundary, and
        without the floor the node would replan the frame it just finished
        and re-arm the same boundary at the same instant, forever.
        """
        for event in self._pending:
            event.cancel()
        self._pending.clear()

        config = self.overlay.frame_config
        now_true = self.overlay.sim.now
        now_local = self.clock.local_time(now_true)
        frame_index = max(config.frame_index_at_local(now_local),
                          min_frame_index)
        self._plan_frame(frame_index, now_local)
        # The next frame boundary re-plans everything from fresh readings.
        next_start_local = config.frame_start_local(frame_index + 1)
        self._schedule_local(next_start_local, self._frame_boundary,
                             frame_index + 1)

    def _frame_boundary(self, frame_index: int) -> None:
        self.plan_from_now(min_frame_index=frame_index)

    def _plan_frame(self, frame_index: int, now_local: float) -> None:
        obs.counter("overlay.frames_planned").inc()
        config = self.overlay.frame_config
        frame_local = config.frame_start_local(frame_index)
        guard = config.guard_s
        # Control opportunities owned by this node.
        plane = self.overlay.control_plane
        for slot in range(config.control_slots):
            if not plane.owns(self.node, frame_index, slot):
                continue
            at_local = frame_local + config.control_slot_offset(slot) + guard
            if at_local >= now_local:
                self._schedule_local(at_local, self._control_slot, slot)
        # Data slots of owned links, scheduled as _schedule_local would.
        tx_slots = tuple(self.tx_slots)
        if tx_slots != self._planned_slots:
            self._slot_plan = [(config.data_slot_offset(slot), slot, link)
                               for slot, link in tx_slots]
            self._planned_slots = tx_slots
        clock = self.clock
        sim = self.overlay.sim
        now = sim.now
        pending = self._pending
        data_slot = self._data_slot
        for offset, slot, link in self._slot_plan:
            at_local = frame_local + offset + guard
            if at_local >= now_local:
                at_true = clock.true_time(at_local)
                if at_true < now:
                    at_true = now
                pending.append(sim.schedule_at(at_true, data_slot, slot,
                                               link))

    def _schedule_local(self, at_local: float, callback, *args) -> None:
        at_true = self.clock.true_time(at_local)
        sim = self.overlay.sim
        if at_true < sim.now:
            at_true = sim.now
        self._pending.append(sim.schedule_at(at_true, callback, *args))

    # -- slot actions -----------------------------------------------------------

    def _control_slot(self, slot: int) -> None:
        overlay = self.overlay
        if (overlay.health is not None
                and overlay.health.check_mute(self.node, overlay.sim.now)):
            # Fail-safe: a node whose worst-case clock error exceeds the
            # hard threshold cannot place *any* transmission safely -- not
            # even control frames, whose slots are just as guard-bounded.
            overlay.trace.emit(overlay.sim.now, "tdma.mute_skip",
                               node=self.node, kind="control", slot=slot)
            obs.counter("resilience.control_slots_muted").inc()
            return
        # Schedule announcements pre-empt sync beacons at this node's
        # opportunity: distribution is rarer and must converge before its
        # activation frame, while the beacon flood is continuous.
        distributor = self.overlay.distributor
        if distributor is not None:
            announcement = distributor.control_payload(self.node)
            if announcement is not None:
                bits = announcement.size_bits()
                # Announcements ride the data burst profile: a
                # multi-reservation DSCH at the 1 Mb/s basic rate would
                # overflow the control slot and collide with the next
                # opportunity.  Beacons (fixed, small, must be maximally
                # robust) keep the basic rate and fit.
                duration = self.overlay.frame_config.phy.airtime(bits)
                self.mac.broadcast(announcement, bits,
                                   kind=_CONTROL,
                                   duration=duration)
                return
        beacon = self.daemon.make_beacon(self.overlay.sim.now)
        if beacon is None:
            return
        duration = self.overlay.frame_config.phy.airtime(
            SyncBeacon.SIZE_BITS, basic_rate=True)
        self.mac.broadcast(beacon, SyncBeacon.SIZE_BITS,
                           kind=_BEACON, duration=duration)

    def _data_slot(self, slot: int, link: Link) -> None:
        overlay = self.overlay
        health = overlay.health
        now = overlay.sim.now
        if health is not None and health.check_mute(self.node, now):
            overlay.trace.emit(now, "tdma.mute_skip", node=self.node,
                               link=link, slot=slot, kind="data")
            obs.counter("resilience.slots_muted").inc()
            return
        fragment = None
        from_inflight = False
        if overlay.arq:
            inflight = self._inflight.get(link)
            if inflight is not None:
                if inflight[1] > overlay.arq_retry_limit:
                    overlay.trace.emit(overlay.sim.now, "tdma.arq_drop",
                                       node=self.node, link=link)
                    del self._inflight[link]
                else:
                    fragment = inflight[0]
                    from_inflight = True
                    if inflight[1] > 0:
                        overlay.trace.emit(overlay.sim.now, "tdma.arq_retx",
                                           node=self.node, link=link,
                                           attempt=inflight[1])
        queue = self.queues.get(link)
        if fragment is None:
            if not queue:
                return
            fragment = queue[0]
        config = overlay.frame_config
        size_bits = (fragment.payload_bits + config.shim_overhead_bits
                     + DATA_HEADER_BITS)
        duration = config.phy.airtime(size_bits)
        extra_guard = 0.0
        if health is not None:
            # Degraded mode: start later (widened effective guard) and only
            # send what still provably ends inside the slot at every
            # neighbour's clock, given the worst-case error envelope.
            extra_guard, max_airtime = health.tx_allowance(self.node, now)
            if duration > max_airtime:
                overlay.trace.emit(now, "tdma.degraded_skip",
                                   node=self.node, link=link, slot=slot)
                obs.counter("resilience.slots_skipped").inc()
                return
            if extra_guard > 0.0:
                obs.counter("resilience.guard_widenings").inc()
        if not from_inflight:
            queue.popleft()
            if overlay.arq:
                self._inflight[link] = [fragment, 0]
        if overlay.arq:
            self._inflight[link][1] += 1
        if extra_guard > 0.0:
            overlay.sim.schedule(extra_guard, self._transmit_fragment,
                                 fragment, size_bits, duration, slot, link)
        else:
            self._transmit_fragment(fragment, size_bits, duration, slot,
                                    link)

    def _transmit_fragment(self, fragment: ShimFragment, size_bits: int,
                           duration: float, slot: int, link: Link) -> None:
        overlay = self.overlay
        overlay.trace.emit(overlay.sim.now, "tdma.tx",
                           node=self.node, link=link, slot=slot)
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("overlay.tx_fragments").inc()
            if self._violates_guard(slot, duration):
                registry.counter("overlay.guard_violations").inc()
        self.mac.broadcast(fragment, size_bits, kind=_DATA,
                           duration=duration)

    def _violates_guard(self, slot: int, duration_s: float) -> bool:
        """Does this transmission leave the slot, as the *gateway* sees it?

        The slot boundaries that matter on air are the reference (gateway)
        clock's: a node whose clock has drifted can start "one guard after
        its own slot edge" and still spill into a neighbour's slot.  This
        is the slot-adherence condition of E8, checked per transmission.
        """
        overlay = self.overlay
        config = overlay.frame_config
        root = overlay.nodes[overlay.control_plane.gateway]
        tx_root = root.clock.local_time(overlay.sim.now)
        frame_local = config.frame_start_local(
            config.frame_index_at_local(tx_root))
        slot_start = frame_local + config.data_slot_offset(slot)
        slot_end = slot_start + config.data_slot_s
        return tx_root < slot_start or tx_root + duration_s > slot_end

    # -- reception ----------------------------------------------------------------

    def _on_receive(self, node: int, frame: PhyFrame, success: bool) -> None:
        overlay = self.overlay
        if not success:
            overlay.trace.emit(overlay.sim.now, "tdma.rx_corrupt",
                               node=self.node, kind=frame.kind.value)
            obs.counter("overlay.rx_corrupt").inc()
            return
        kind = frame.kind
        if kind is _BEACON and isinstance(frame.payload, SyncBeacon):
            airtime = overlay.frame_config.phy.airtime(
                frame.size_bits, basic_rate=True)
            stepped = self.daemon.on_beacon(
                frame.payload, overlay.sim.now, airtime,
                overlay.frame_config.phy.propagation_delay_s)
            if stepped:
                if overlay.health is not None:
                    overlay.health.note_adoption(self.node, overlay.sim.now)
                self.plan_from_now()
            return
        if kind is _CONTROL:
            distributor = overlay.distributor
            if distributor is not None and isinstance(
                    frame.payload, ScheduleAnnouncement):
                distributor.on_announcement(self.node, frame.payload)
            return
        if kind is _ACK and overlay.arq:
            payload = frame.payload
            if isinstance(payload, tuple) and len(payload) == 3:
                link, packet_id, index = payload
                if link[0] != self.node:
                    return  # someone else's micro-ACK
                inflight = self._inflight.get(link)
                if (inflight is not None
                        and inflight[0].packet.packet_id == packet_id
                        and inflight[0].index == index):
                    del self._inflight[link]
            return
        if kind is _DATA and isinstance(frame.payload, ShimFragment):
            fragment = frame.payload
            if fragment.link[1] != self.node:
                return  # overheard a neighbour's slot; not for us
            if overlay.arq:
                self._send_micro_ack(fragment)
                key = (fragment.link, fragment.packet.packet_id,
                       fragment.index)
                if key in self._seen_set:
                    return  # retransmission of an already delivered piece
                if len(self._seen_fragments) == self._seen_fragments.maxlen:
                    self._seen_set.discard(self._seen_fragments[0])
                self._seen_fragments.append(key)
                self._seen_set.add(key)
            packet = self.reassembler.accept(fragment)
            if packet is not None:
                obs.counter("overlay.packets_reassembled").inc()
                overlay.on_packet(self.node, packet)

    def _send_micro_ack(self, fragment: ShimFragment) -> None:
        """Acknowledge a data fragment within its own slot (ARQ mode).

        Sent at the data rate: both endpoints of a scheduled link decode
        it by construction, and paying the PLCP preamble twice per slot at
        the 1 Mb/s basic rate would leave no room for data on 802.11b.
        """
        overlay = self.overlay
        if (overlay.health is not None
                and overlay.health.check_mute(self.node, overlay.sim.now)):
            return  # fail-safe mute covers micro-ACKs too
        ack_payload = (fragment.link, fragment.packet.packet_id,
                       fragment.index)
        duration = overlay.frame_config.phy.airtime(ACK_BITS)
        overlay.trace.emit(overlay.sim.now, "tdma.arq_ack", node=self.node,
                           link=fragment.link)
        overlay.sim.schedule(ARQ_SIFS_S, self.mac.broadcast, ack_payload,
                             ACK_BITS, _ACK, duration)


class TdmaOverlay:
    """The whole emulated TDMA mesh: one :class:`TdmaNode` per node.

    Parameters
    ----------
    sim, topology, channel:
        Kernel, mesh and shared medium.
    frame_config:
        Frame geometry; ``frame_config.data_slots`` must equal the
        schedule's ``frame_slots``.
    control_plane:
        Control-subframe ownership and the scheduling tree.
    schedule:
        The conflict-free TDMA schedule to execute.
    clocks:
        Per-node software clocks (drift/offset set by the experiment).
    sync_config:
        Synchronization protocol parameters.
    on_packet:
        Callback ``(node, packet)`` when a data packet completes reassembly
        at a link receiver (the forwarder hooks in here).
    health:
        Optional :class:`~repro.resilience.health.HealthMonitor`.  When
        present, every transmission opportunity is gated through its
        degraded-mode state machine: stale nodes widen their effective
        guard (transmitting later and skipping fragments that no longer
        provably fit), and past the hard threshold they fail-safe-mute all
        transmissions -- data, beacons, announcements and micro-ACKs --
        until re-synced.
    """

    def __init__(self, sim: Simulator, topology: MeshTopology,
                 channel: BroadcastChannel, frame_config: MeshFrameConfig,
                 control_plane: ControlPlane, schedule: Schedule,
                 clocks: dict[int, DriftingClock],
                 sync_daemons: dict[int, SyncDaemon],
                 on_packet: Callable[[int, Packet], None],
                 trace: Optional[Trace] = None,
                 queue_capacity_fragments: int = 256,
                 arq: bool = False, arq_retry_limit: int = 3,
                 health: Optional[HealthMonitor] = None) -> None:
        if schedule.frame_slots != frame_config.data_slots:
            raise ConfigurationError(
                f"schedule has {schedule.frame_slots} slots but the frame "
                f"has {frame_config.data_slots} data slots")
        self.sim = sim
        self.topology = topology
        self.channel = channel
        self.frame_config = frame_config
        self.control_plane = control_plane
        self.schedule = schedule
        self.on_packet = on_packet
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.queue_capacity_fragments = queue_capacity_fragments
        #: optional in-band schedule distributor (see attach_distributor)
        self.distributor = None
        #: optional per-node sync-health monitor (degraded modes)
        self.health = health
        #: slot-level ARQ (extension): receivers micro-ACK each fragment
        #: within its slot; unacked fragments are retransmitted in the
        #: link's next slot, up to ``arq_retry_limit`` extra attempts
        self.arq = arq
        self.arq_retry_limit = arq_retry_limit
        if arq:
            phy = frame_config.phy
            usable_s = (frame_config.data_slot_s - frame_config.guard_s
                        - ARQ_SIFS_S - phy.airtime(ACK_BITS))
            mac_bits = phy.bits_in(usable_s)
            self.fragment_capacity_bits = (mac_bits - DATA_HEADER_BITS
                                           - frame_config.shim_overhead_bits)
            if self.fragment_capacity_bits <= 0:
                raise ConfigurationError(
                    "data slots too short to fit a fragment plus the ARQ "
                    "micro-ACK; lengthen the slots or disable arq")
        else:
            self.fragment_capacity_bits = frame_config.data_slot_capacity_bits

        self.nodes: dict[int, TdmaNode] = {}
        for node in topology.nodes:
            if node not in clocks or node not in sync_daemons:
                raise ConfigurationError(
                    f"node {node} is missing a clock or sync daemon")
            self.nodes[node] = TdmaNode(self, node, clocks[node],
                                        sync_daemons[node])
        for link, block in schedule.items():
            tx_node = self.nodes.get(link[0])
            if tx_node is None:
                raise ConfigurationError(
                    f"scheduled link {link} has unknown transmitter")
            for slot in block.slots():
                tx_node.tx_slots.append((slot, link))
        for node in self.nodes.values():
            node.tx_slots.sort()

    def start(self) -> None:
        """Arm every node's frame loop (call once before ``sim.run``)."""
        for node in self.nodes.values():
            node.start()

    def attach_distributor(self, distributor) -> None:
        """Enable in-band schedule distribution (MSH-DSCH flooding).

        With a :class:`~repro.overlay.distribution.ScheduleDistributor`
        attached, nodes hand their control opportunities to pending
        announcements before sync beacons, receive announcements from
        neighbours, and apply new schedules at their activation frames.
        """
        if self.distributor is not None:
            raise ConfigurationError("a distributor is already attached")
        self.distributor = distributor

    # -- MacAdapter for the forwarder ------------------------------------------

    def transmit(self, node: int, packet: Packet) -> bool:
        return self.nodes[node].enqueue(packet)

    # -- instrumentation ---------------------------------------------------------

    def sync_error_s(self, node: int) -> float:
        """Absolute clock error of ``node`` vs the gateway, right now."""
        root = self.control_plane.gateway
        now = self.sim.now
        return abs(self.nodes[node].clock.local_time(now)
                   - self.nodes[root].clock.local_time(now))

    def max_sync_error_s(self) -> float:
        return max(self.sync_error_s(n) for n in self.nodes)

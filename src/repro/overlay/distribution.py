"""In-band schedule distribution (the MSH-DSCH analogue).

The centralized scheduler lives at the gateway; its slot assignments must
reach every node over the mesh itself before they can take effect.  The
distributor floods a versioned :class:`~repro.mesh16.messages.
ScheduleAnnouncement` through the control subframe: the gateway transmits
it at its own control opportunities, every node that hears a new version
rebroadcasts it a configurable number of times at *its* opportunities, and
each node applies the assignments at the announcement's activation frame
-- measured on its own synchronized clock, so the mesh switches schedules
on the same frame boundary (up to sync error, which the activation margin
absorbs).

Control slots are collision-free by construction, but on real WiFi
hardware control *receptions* are not reliable: fading, noise bursts and
interference lose announcements exactly like data (modelled by
:meth:`repro.phy.channel.BroadcastChannel.set_control_error_model` and the
``control_loss`` fault kind).  A fixed rebroadcast budget then silently
strands nodes on stale slot maps.  Passing a :class:`repro.resilience.
ResilienceConfig` enables the loss-tolerant dissemination mode:

- **implicit acks** -- every rebroadcast of version ``N`` is an implicit
  ack; announcements piggyback the sender's set of nodes known to hold
  ``N``, receivers merge it, and the union gossips back to the gateway on
  the rebroadcasts themselves (no extra message type).
- **coverage-acked commit with epoch re-floods** -- the gateway treats a
  version as *committed* only once its ack set covers a configurable
  fraction of live nodes; until then it defers any successor version and
  periodically re-floods with a bumped ``epoch``, which refreshes every
  node's rebroadcast budget.  Stale floods (older version, or same version
  with a non-newer epoch) are rejected and only mined for acks.
- **last-known-good holdover** -- a node that missed version ``N`` simply
  keeps executing ``N-1``; nothing ever clears a slot map except a newer
  one.  Because the gateway never originates ``N+1`` before ``N`` commits,
  any two *concurrently applied* maps are adjacent versions.
- **make-before-break transition versions** -- at origination the new
  assignments are checked against the last committed ones on the conflict
  graph (cross-version overlaps only matter between *different*
  transmitters: one node holds exactly one map).  If the union conflicts,
  the gateway first floods an automatic transition version containing
  only the compatible subset, commits it, then floods the full target --
  so every adjacent-version mix on air is conflict-free by construction,
  and the S8 validator passes at any control-loss rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.errors import ConfigurationError
from repro.mesh16.messages import ScheduleAnnouncement
from repro.resilience.config import ResilienceConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.conflict import ConflictIndex
    from repro.overlay.emulation import TdmaOverlay

#: minimum frames between consecutive activation boundaries in resilient
#: mode; keeps non-adjacent versions from ever being co-applied across the
#: residual sync error
ACTIVATION_GAP_FRAMES = 2


class ScheduleDistributor:
    """Flood-and-activate distribution of centralized schedules.

    Parameters
    ----------
    overlay:
        The TDMA overlay to distribute within (attach with
        :meth:`TdmaOverlay.attach_distributor`).
    gateway:
        The node that originates announcements.
    rebroadcasts:
        How many of its control opportunities each node spends repeating a
        newly learned version (redundancy against reception losses).
    resilience:
        Enables the loss-tolerant dissemination mode (implicit-ack
        coverage, epoch re-floods, commit gating, transition versions).
        ``None`` (the default) keeps the legacy fire-and-forget flood.
    conflicts:
        Link conflict relation (a
        :class:`~repro.core.conflict.ConflictIndex`),
        required for automatic transition versions.  Without it the
        resilient mode trusts the caller to only announce schedules whose
        union with the previous one is conflict-free.
    """

    def __init__(self, overlay: "TdmaOverlay", gateway: int,
                 rebroadcasts: int = 2,
                 resilience: Optional[ResilienceConfig] = None,
                 conflicts: Optional["ConflictIndex"] = None) -> None:
        if rebroadcasts < 1:
            raise ConfigurationError("need at least one rebroadcast")
        self.overlay = overlay
        self.gateway = gateway
        self.rebroadcasts = rebroadcasts
        self.resilience = resilience
        self.conflicts = conflicts
        self._next_version = 1
        #: highest version seen per node
        self.seen_version: dict[int, int] = {
            node: 0 for node in overlay.nodes}
        #: highest version applied per node
        self.applied_version: dict[int, int] = {
            node: 0 for node in overlay.nodes}
        #: node -> [announcement, remaining rebroadcasts]
        self._pending: dict[int, list] = {}
        #: the slot map each node is currently executing (holdover state);
        #: version 0 is the overlay's statically installed schedule
        initial = tuple(overlay.schedule.items())
        self.applied_assignments: dict[int, tuple] = {
            node: initial for node in overlay.nodes}
        # -- resilient-mode state ------------------------------------------
        #: canonical announcement per version (assignments + activation)
        self._announcements: dict[int, ScheduleAnnouncement] = {}
        #: per node: epoch of the version it currently holds
        self._epoch: dict[int, int] = {node: 0 for node in overlay.nodes}
        #: per node: ids known to hold the node's current version
        self._acked: dict[int, set[int]] = {
            node: set() for node in overlay.nodes}
        #: last version whose coverage the gateway confirmed
        self.committed_version = 0
        self._committed_pairs: tuple = initial
        #: version currently flooding (None when committed/caught up)
        self._inflight: Optional[int] = None
        self._refloods_used = 0
        #: queued (assignments, requested activation frame) targets
        self._queue: deque = deque()
        self._reflood_armed = False
        self._last_activation_frame = 0
        #: true time each version was first flooded / confirmed covered
        self.announce_times: dict[int, float] = {}
        self.commit_times: dict[int, float] = {}

    # -- origination --------------------------------------------------------

    def announce(self, schedule,
                 activation_frame: int) -> ScheduleAnnouncement:
        """Queue a new schedule version for flooding from the gateway.

        ``schedule`` is anything exposing ``frame_slots`` and ``items()``
        -- a plain :class:`~repro.core.schedule.Schedule` or a multi-block
        view such as :class:`~repro.core.besteffort.TwoClassSchedule`.
        ``activation_frame`` should leave enough frames for the flood to
        cover the mesh: at least ``ceil(nodes / control_slots)`` frames per
        tree depth tier in the worst case.

        In resilient mode the call returns the announcement that actually
        starts flooding *now*: the requested target itself when it is
        union-compatible with the committed schedule, an automatic
        transition version when it is not, or -- while an earlier version
        is still uncommitted -- the in-flight announcement, with the
        target queued behind it.
        """
        if schedule.frame_slots != self.overlay.frame_config.data_slots:
            raise ConfigurationError(
                "announced schedule does not match the frame geometry")
        if self.resilience is None:
            announcement = ScheduleAnnouncement.build(
                version=self._next_version,
                activation_frame=activation_frame,
                assignments=tuple(schedule.items()))
            self._next_version += 1
            self._learn(self.gateway, announcement)
            return announcement
        self._queue.append((tuple(schedule.items()), activation_frame))
        self._try_dispatch()
        return self._announcements[
            self._inflight if self._inflight is not None
            else self.committed_version]

    # -- overlay hooks ------------------------------------------------------

    def control_payload(self, node: int) -> Optional[ScheduleAnnouncement]:
        """Called by the overlay at ``node``'s control opportunity."""
        entry = self._pending.get(node)
        if entry is None:
            return None
        announcement, remaining = entry
        if remaining <= 1:
            del self._pending[node]
        else:
            entry[1] = remaining - 1
        if self.resilience is None:
            return announcement
        # Each rebroadcast carries this node's up-to-date implicit-ack view
        # and its current epoch, so coverage gossips back to the gateway.
        return replace(announcement, epoch=self._epoch[node],
                       acked=tuple(sorted(self._acked[node])))

    def on_announcement(self, node: int,
                        announcement: ScheduleAnnouncement) -> bool:
        """Called by the overlay when ``node`` receives an announcement."""
        if self.resilience is None:
            return self._learn(node, announcement)
        version = announcement.version
        if version < self.seen_version[node]:
            # A straggler's rebroadcast of an already superseded version:
            # reject it, but keep our own flood of the newer one going.
            obs.counter("resilience.dsch.stale_rejected").inc()
            return False
        if version == self.seen_version[node]:
            self._merge_acks(node, announcement)
            if announcement.epoch > self._epoch[node]:
                # A re-flood: adopt the new epoch and refresh this node's
                # rebroadcast budget so the wave propagates outward again.
                self._epoch[node] = announcement.epoch
                self._pending[node] = [
                    self._canonical(version), self.rebroadcasts]
            return False
        return self._learn(node, announcement)

    # -- internals -----------------------------------------------------------

    def _canonical(self, version: int) -> ScheduleAnnouncement:
        announcement = self._announcements.get(version)
        if announcement is None:
            raise ConfigurationError(f"unknown schedule version {version}")
        return announcement

    def _merge_acks(self, node: int,
                    announcement: ScheduleAnnouncement) -> None:
        acked = self._acked[node]
        before = len(acked)
        acked.update(announcement.acked)
        if len(acked) == before:
            return
        if node == self.gateway:
            self._check_commit()
        elif node not in self._pending:
            # Ack-gossip: a grown ack view is news worth one rebroadcast,
            # pulling coverage gateway-ward tier by tier instead of waiting
            # a full epoch re-flood per tier.  Monotone sets bound this at
            # O(nodes) extra broadcasts per node per version.
            self._pending[node] = [
                self._canonical(self.seen_version[node]), 1]

    def _learn(self, node: int, announcement: ScheduleAnnouncement) -> bool:
        if announcement.version <= self.seen_version[node]:
            return False
        self.seen_version[node] = announcement.version
        if self.resilience is not None:
            canonical = self._announcements.setdefault(
                announcement.version,
                replace(announcement, epoch=0, acked=()))
            self._epoch[node] = announcement.epoch
            self._acked[node] = {node} | set(announcement.acked)
            self._pending[node] = [canonical, self.rebroadcasts]
            if node == self.gateway:
                self._check_commit()
        else:
            self._pending[node] = [announcement, self.rebroadcasts]
        self._schedule_activation(node, announcement)
        self.overlay.trace.emit(self.overlay.sim.now, "dsch.learn",
                                node=node, version=announcement.version)
        return True

    def _schedule_activation(self, node: int,
                             announcement: ScheduleAnnouncement) -> None:
        tdma_node = self.overlay.nodes[node]
        local_at = self.overlay.frame_config.frame_start_local(
            announcement.activation_frame)
        at_true = tdma_node.clock.true_time(local_at)
        now = self.overlay.sim.now
        if at_true < now:
            at_true = now  # late learner activates immediately
        self.overlay.sim.schedule_at(at_true, self._activate, node,
                                     announcement)

    def _activate(self, node: int,
                  announcement: ScheduleAnnouncement) -> None:
        if announcement.version <= self.applied_version[node]:
            return  # superseded before activation
        self.applied_version[node] = announcement.version
        self.applied_assignments[node] = announcement.assignments
        self.overlay.nodes[node].apply_assignments(announcement.assignments)
        self.overlay.trace.emit(self.overlay.sim.now, "dsch.activate",
                                node=node, version=announcement.version)

    # -- resilient dissemination ---------------------------------------------

    def _alive_nodes(self) -> list[int]:
        channel = self.overlay.channel
        return [n for n in self.overlay.nodes
                if not channel.node_is_down(n)]

    def _gateway_frame_index(self) -> int:
        clock = self.overlay.nodes[self.gateway].clock
        local = clock.local_time(self.overlay.sim.now)
        return self.overlay.frame_config.frame_index_at_local(local)

    def _try_dispatch(self) -> None:
        """Start flooding the next version if nothing is uncommitted."""
        if self._inflight is not None or not self._queue:
            return
        target_pairs, requested_frame = self._queue[0]
        pairs = target_pairs
        if (self.conflicts is not None
                and not self._union_conflict_free(self._committed_pairs,
                                                  target_pairs)):
            subset = self._compatible_subset(target_pairs)
            if subset != target_pairs:
                pairs = subset
                obs.counter("resilience.dsch.transition_versions").inc()
        if pairs == target_pairs:
            self._queue.popleft()
        activation_frame = max(
            requested_frame,
            self._gateway_frame_index() + ACTIVATION_GAP_FRAMES,
            self._last_activation_frame + ACTIVATION_GAP_FRAMES)
        self._last_activation_frame = activation_frame
        version = self._next_version
        self._next_version += 1
        announcement = ScheduleAnnouncement.build(
            version=version, activation_frame=activation_frame,
            assignments=pairs)
        self._announcements[version] = announcement
        self._inflight = version
        self._refloods_used = 0
        self.announce_times[version] = self.overlay.sim.now
        self.overlay.trace.emit(self.overlay.sim.now, "dsch.flood",
                                version=version,
                                transition=pairs is not target_pairs)
        self._learn(self.gateway, announcement)
        self._arm_reflood()

    def _union_conflict_free(self, old_pairs, new_pairs) -> bool:
        """Can ``old`` and ``new`` run on different nodes simultaneously?

        Cross-version pairs on the *same* transmitter cannot co-occur (a
        node executes exactly one version), so only different-transmitter
        conflicts with overlapping slots matter.
        """
        for link_a, block_a in old_pairs:
            for link_b, block_b in new_pairs:
                if link_a[0] == link_b[0]:
                    continue
                if not block_a.overlaps(block_b):
                    continue
                if link_a == link_b or self.conflicts.has_edge(link_a,
                                                               link_b):
                    return False
        return True

    def _compatible_subset(self, new_pairs) -> tuple:
        """The assignments of ``new`` that coexist with the committed map."""
        return tuple(
            (link, block) for link, block in new_pairs
            if self._union_conflict_free(self._committed_pairs,
                                         ((link, block),)))

    def _check_commit(self) -> None:
        if self._inflight is None:
            return
        if self.seen_version[self.gateway] != self._inflight:
            return
        alive = self._alive_nodes()
        acked = self._acked[self.gateway]
        covered = sum(1 for n in alive if n in acked)
        if covered < self.resilience.coverage_target * len(alive):
            return
        version = self._inflight
        self._inflight = None
        self.committed_version = version
        self._committed_pairs = self._canonical(version).assignments
        self.commit_times[version] = self.overlay.sim.now
        obs.counter("resilience.dsch.commits").inc()
        self.overlay.trace.emit(self.overlay.sim.now, "dsch.commit",
                                version=version, coverage=covered)
        self._try_dispatch()

    def _arm_reflood(self) -> None:
        if self._reflood_armed:
            return
        self._reflood_armed = True
        period = (self.resilience.reflood_interval_frames
                  * self.overlay.frame_config.frame_duration_s)
        self.overlay.sim.schedule(period, self._reflood_tick)

    def _reflood_tick(self) -> None:
        self._reflood_armed = False
        self._check_commit()
        if self._inflight is None:
            return  # committed (any successor re-arms at dispatch)
        if self._refloods_used >= self.resilience.max_refloods:
            return  # budget spent; acks may still trickle in and commit
        self._refloods_used += 1
        version = self._inflight
        self._epoch[self.gateway] += 1
        self._pending[self.gateway] = [
            self._canonical(version), self.rebroadcasts]
        obs.counter("resilience.dsch.refloods").inc()
        self.overlay.trace.emit(self.overlay.sim.now, "dsch.reflood",
                                version=version,
                                epoch=self._epoch[self.gateway])
        self._arm_reflood()

    # -- instrumentation -------------------------------------------------------

    def coverage(self) -> float:
        """Fraction of nodes that have learned the latest version."""
        latest = self._next_version - 1
        if latest == 0:
            return 1.0
        learned = sum(1 for v in self.seen_version.values() if v >= latest)
        return learned / len(self.seen_version)

    def acked_coverage(self) -> float:
        """The gateway's implicit-ack view of live-node coverage."""
        alive = self._alive_nodes()
        if not alive:
            return 1.0
        acked = self._acked[self.gateway]
        return sum(1 for n in alive if n in acked) / len(alive)

    def holdover_nodes(self) -> frozenset[int]:
        """Nodes still executing an older version than the committed one."""
        return frozenset(
            n for n, v in self.applied_version.items()
            if v < self.committed_version)

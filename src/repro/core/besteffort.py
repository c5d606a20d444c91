"""Two-class scheduling: guaranteed QoS + best effort.

The NET-COOP companion paper's framing is *multi-service*: guaranteed-delay
streams (VoIP) coexist with elastic best-effort streams (file transfer).
The guaranteed class gets the smallest region that meets its bandwidth and
delay requirements (:func:`repro.core.minslots.minimum_slots`); everything
left in the data subframe is handed to best effort.

Best effort is elastic, so its packer never fails: each best-effort link
receives the **largest contiguous block that still fits** in the leftover
region (first-fit decreasing by requested demand, conflicts respected),
possibly zero.  The returned :class:`TwoClassSchedule` reports the grant
per link so callers can see how much of the ask was satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.conflict import ConflictIndex
from repro.core.ilp import DelayConstraint
from repro.core.minslots import MinSlotResult, minimum_slots
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError, InfeasibleScheduleError
from repro.net.topology import Link


@dataclass
class TwoClassSchedule:
    """Outcome of :func:`schedule_two_classes`.

    A link that carries both classes legitimately holds *two* blocks (one
    per region), which a plain one-block :class:`~repro.core.schedule.
    Schedule` cannot express -- so this object is itself the combined
    schedule view: it exposes ``frame_slots`` and ``items()`` (possibly
    repeating a link) and can be handed directly to
    :class:`~repro.overlay.emulation.TdmaOverlay` or to the in-band
    distributor.  Cross-class conflict-freeness holds by construction: the
    classes live in disjoint slot regions.
    """

    #: slots 0..guaranteed_region-1 carry the guaranteed class
    guaranteed_region: int
    frame_slots: int
    #: guaranteed-class blocks only
    guaranteed: Schedule
    #: best-effort blocks only (all inside the leftover region)
    best_effort: Schedule
    #: best-effort slots granted per link (may be below the ask, or zero)
    best_effort_grants: dict[Link, int] = field(default_factory=dict)
    #: the min-slot search that sized the guaranteed region
    search: Optional[MinSlotResult] = None

    @property
    def best_effort_region(self) -> int:
        return self.frame_slots - self.guaranteed_region

    def items(self):
        """All (link, block) assignments; a link may appear twice."""
        yield from self.guaranteed.items()
        yield from self.best_effort.items()

    def grant_fraction(self, demands: Mapping[Link, int]) -> float:
        """Fraction of requested best-effort slots actually granted."""
        asked = sum(demands.values())
        if asked == 0:
            return 1.0
        granted = sum(self.best_effort_grants.get(l, 0) for l in demands)
        return granted / asked


def pack_best_effort(conflicts: ConflictIndex, demands: Mapping[Link, int],
                     region_start: int, frame_slots: int,
                     occupied: Optional[Schedule] = None) -> Schedule:
    """Elastically pack best-effort blocks into ``[region_start, frame)``.

    First-fit decreasing; a link whose full ask does not fit gets the
    largest block that does (possibly none).  ``occupied`` blocks (the
    guaranteed schedule) are avoided for conflicting links even if they
    intrude into the best-effort region.
    """
    if not 0 <= region_start <= frame_slots:
        raise ConfigurationError(
            f"region_start {region_start} outside 0..{frame_slots}")
    assignments: dict[Link, SlotBlock] = {}

    def busy_intervals(link: Link) -> list[tuple[int, int]]:
        intervals = []
        for other in conflicts.neighbors(link):
            if other in assignments:
                block = assignments[other]
                intervals.append((block.start, block.end))
            if occupied is not None and other in occupied:
                block = occupied.block(other)
                intervals.append((block.start, block.end))
        if occupied is not None and link in occupied:
            block = occupied.block(link)
            intervals.append((block.start, block.end))
        return sorted(intervals)

    for link in sorted(demands, key=lambda l: (-demands[l], l)):
        ask = demands[link]
        if ask <= 0:
            continue
        intervals = busy_intervals(link)
        best: Optional[SlotBlock] = None
        for length in range(min(ask, frame_slots - region_start), 0, -1):
            candidate = region_start
            placed = None
            for start, end in intervals:
                if candidate + length <= start:
                    break
                candidate = max(candidate, end)
            if candidate + length <= frame_slots:
                placed = candidate
            if placed is not None:
                best = SlotBlock(placed, length)
                break
        if best is not None:
            assignments[link] = best

    schedule = Schedule(frame_slots, assignments)
    schedule.validate(conflicts)
    return schedule


def schedule_two_classes(conflicts: ConflictIndex,
                         guaranteed_demands: Mapping[Link, int],
                         best_effort_demands: Mapping[Link, int],
                         frame_slots: int,
                         delay_constraints: Sequence[DelayConstraint] = ()
                         ) -> TwoClassSchedule:
    """Size the guaranteed region, then fill the rest with best effort.

    The region comes from the paper's linear min-slot search (the default
    :class:`~repro.core.policy.SolverPolicy`).

    Raises :class:`~repro.errors.InfeasibleScheduleError` only if the
    *guaranteed* class cannot be scheduled; best effort is elastic and
    degrades to whatever fits (including nothing).
    """
    result = minimum_slots(conflicts, dict(guaranteed_demands), frame_slots,
                           delay_constraints=delay_constraints)
    if not result.feasible:
        raise InfeasibleScheduleError(
            f"guaranteed class does not fit in {frame_slots} slots")
    region = result.slots
    guaranteed = (result.schedule if result.schedule is not None
                  else Schedule(frame_slots))
    # re-home the guaranteed schedule in the full frame length
    guaranteed_full = Schedule(frame_slots)
    for link, block in guaranteed.items():
        guaranteed_full.assign(link, block)

    best_effort = pack_best_effort(conflicts, best_effort_demands,
                                   region_start=region,
                                   frame_slots=frame_slots,
                                   occupied=guaranteed_full)
    # cross-class safety holds by construction: guaranteed blocks end at
    # `region`, best-effort blocks start at or after it
    assert all(b.end <= region for ____, b in guaranteed_full.items())
    assert all(b.start >= region for ____, b in best_effort.items())

    return TwoClassSchedule(
        guaranteed_region=region,
        frame_slots=frame_slots,
        guaranteed=guaranteed_full,
        best_effort=best_effort,
        best_effort_grants={l: b.length for l, b in best_effort.items()},
        search=result,
    )

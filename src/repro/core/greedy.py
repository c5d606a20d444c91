"""Greedy slot-packing baselines.

These are the comparators the ILP is judged against in E1/E7: sequential
first-fit assignment of contiguous blocks, processing links in one of three
orders.  Greedy packing is conflict-free by construction but knows nothing
about end-to-end delay, so its schedules typically suffer one wrap per hop
on unlucky routes.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.core.conflict import ConflictIndex
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError, InfeasibleScheduleError
from repro.net.topology import Link


def _link_processing_order(demands: Mapping[Link, int], strategy: str,
                           rng: Optional[np.random.Generator]) -> list[Link]:
    links = [l for l in sorted(demands) if demands[l] > 0]
    if strategy == "index":
        return links
    if strategy == "demand":
        # Heaviest demand first (classic first-fit-decreasing), canonical
        # tie-break for determinism.
        return sorted(links, key=lambda l: (-demands[l], l))
    if strategy == "random":
        if rng is None:
            raise ConfigurationError("strategy='random' requires an rng")
        permutation = rng.permutation(len(links))
        return [links[i] for i in permutation]
    raise ConfigurationError(f"unknown greedy strategy {strategy!r}")


def _earliest_fit(busy: list[tuple[int, int]], length: int,
                  limit: Optional[int]) -> Optional[int]:
    """Earliest start of a ``length``-slot block avoiding ``busy`` intervals.

    ``busy`` is a list of (start, end) half-open intervals.  Returns None if
    no start fits below ``limit`` (when given).
    """
    candidate = 0
    for start, end in sorted(busy):
        if candidate + length <= start:
            break
        candidate = max(candidate, end)
    if limit is not None and candidate + length > limit:
        return None
    return candidate


def greedy_schedule(conflicts: ConflictIndex, demands: Mapping[Link, int],
                    frame_slots: Optional[int] = None,
                    strategy: str = "demand",
                    rng: Optional[np.random.Generator] = None) -> Schedule:
    """First-fit contiguous slot packing.

    Parameters
    ----------
    conflicts:
        Conflict relation over (at least) the demanded links; a demanded
        link missing from it raises
        :class:`~repro.errors.ConfigurationError`.
    demands:
        Slots per frame needed by each link; zero-demand links are skipped.
    frame_slots:
        If given, fail with :class:`~repro.errors.InfeasibleScheduleError`
        when a link cannot fit below this bound.  If ``None``, the schedule
        is unbounded and the returned frame length is the greedy makespan --
        i.e. greedy's answer to the minimum-slots question.
    strategy:
        ``"demand"`` (first-fit decreasing), ``"index"`` (canonical link
        order) or ``"random"`` (a shuffled order drawn from ``rng``).
    """
    order = _link_processing_order(demands, strategy, rng)
    starts: dict[Link, SlotBlock] = {}
    for link in order:
        busy = [(starts[other].start, starts[other].end)
                for other in conflicts.neighbors(link) if other in starts]
        start = _earliest_fit(busy, demands[link], frame_slots)
        if start is None:
            raise InfeasibleScheduleError(
                f"greedy({strategy}) could not fit link {link} "
                f"({demands[link]} slots) within {frame_slots} slots")
        starts[link] = SlotBlock(start, demands[link])

    span = max((block.end for block in starts.values()), default=1)
    schedule = Schedule(frame_slots if frame_slots is not None else span)
    for link, block in starts.items():
        schedule.assign(link, block)
    schedule.validate(conflicts)
    return schedule

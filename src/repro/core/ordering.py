"""Transmission orders and order -> schedule recovery.

The key decomposition from the paper line: a conflict-free schedule is
(a) a *relative order* in which conflicting links transmit within the frame,
plus (b) concrete start slots consistent with that order.  Part (b) is a
difference-constraint system solved by Bellman-Ford on the conflict graph
(:mod:`repro.core.bellman_ford`); part (a) is what the ILP
(:mod:`repro.core.ilp`) or the tree algorithm (:mod:`repro.core.tree_order`)
optimizes, because the order alone determines the number of frame *wraps* a
packet suffers along its path -- and hence its delay to within one frame.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.bellman_ford import DifferenceConstraints
from repro.core.conflict import ConflictIndex, _pairs_among
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError, InfeasibleScheduleError
from repro.net.topology import Link

#: Synthetic origin vertex used in constraint systems.
ORIGIN = "__origin__"


class TransmissionOrder:
    """A relative transmission order over links.

    Internally a rank per link; ``precedes(a, b)`` means link ``a``'s block
    must end no later than link ``b``'s block starts *within the frame*
    (for conflicting links) or simply that ``a`` comes earlier in the frame
    (for delay accounting on consecutive path links).

    An order built :meth:`from_ranking` is total; :meth:`from_pairs` builds
    a partial order defined only on the given pairs, as produced by the ILP.
    """

    def __init__(self, ranks: Mapping[Link, float],
                 pair_overrides: Optional[Mapping[tuple[Link, Link], bool]] = None
                 ) -> None:
        self._ranks = dict(ranks)
        #: (a, b) -> True iff a precedes b, for pairs where rank comparison
        #: is not the source of truth (ILP solutions).
        self._pairs = dict(pair_overrides or {})

    @classmethod
    def _packed(cls, links: Sequence[Link],
                start: Sequence[int]) -> "TransmissionOrder":
        """The order start slots ``start[i]`` of ``links[i]`` induce, as
        :meth:`from_schedule` gives it, ranks built when first used.

        The caller leaves the sequences unchanged.
        """
        order = cls.__new__(cls)
        order._starts = (links, start)
        order._pairs = {}
        return order

    @cached_property
    def _ranks(self) -> dict[Link, float]:
        """A :meth:`_packed` order's ranks, built on first use (every
        other order sets them in ``__init__``)."""
        links, start = self._starts
        return {link: float(start[i]) for i, link in enumerate(links)}

    @classmethod
    def from_ranking(cls, links_in_order: Iterable[Link]) -> "TransmissionOrder":
        """Total order: earlier in the iterable = earlier in the frame."""
        ranks: dict[Link, float] = {}
        for position, link in enumerate(links_in_order):
            if link in ranks:
                raise ConfigurationError(f"link {link} appears twice in ranking")
            ranks[link] = float(position)
        return cls(ranks)

    @classmethod
    def from_pairs(cls, pairs: Mapping[tuple[Link, Link], bool]) -> "TransmissionOrder":
        """Partial order from explicit pair decisions.

        ``pairs[(a, b)] = True`` means ``a`` precedes ``b``.  Both
        orientations are filled in.
        """
        full: dict[tuple[Link, Link], bool] = {}
        for (a, b), a_first in pairs.items():
            full[(a, b)] = bool(a_first)
            full[(b, a)] = not a_first
        return cls(ranks={}, pair_overrides=full)

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "TransmissionOrder":
        """The order induced by an existing schedule's start slots."""
        return cls({link: float(block.start) for link, block in schedule.items()})

    def copy(self) -> "TransmissionOrder":
        """An independent copy (solver caches hand these out)."""
        return TransmissionOrder(self._ranks, self._pairs)

    def knows(self, a: Link, b: Link) -> bool:
        """True iff the order can compare ``a`` and ``b``."""
        if (a, b) in self._pairs:
            return True
        return a in self._ranks and b in self._ranks

    def precedes(self, a: Link, b: Link) -> bool:
        """True iff ``a`` transmits earlier than ``b`` within the frame."""
        if a == b:
            raise ConfigurationError(f"cannot order link {a} against itself")
        if (a, b) in self._pairs:
            return self._pairs[(a, b)]
        try:
            rank_a, rank_b = self._ranks[a], self._ranks[b]
        except KeyError as exc:
            raise ConfigurationError(
                f"order does not cover pair ({a}, {b})") from exc
        if rank_a == rank_b:
            # Stable tie-break on the canonical link ordering.
            return a < b
        return rank_a < rank_b

    def links(self) -> list[Link]:
        """All links the order knows about."""
        known = set(self._ranks)
        for a, b in self._pairs:
            known.add(a)
            known.add(b)
        return sorted(known)


def order_constraints(conflicts: ConflictIndex, demands: Mapping[Link, int],
                      frame_slots: int, order: TransmissionOrder
                      ) -> DifferenceConstraints:
    """Difference-constraint system for start slots under a fixed order.

    Variables are the demanded links plus :data:`ORIGIN` (pinned to slot 0).
    Constraints:

    - ``0 <= s_l <= frame_slots - d_l`` (blocks fit in the frame);
    - for every conflict edge ``(a, b)`` with positive demands, the earlier
      link finishes before the later one starts.

    A demanded link missing from ``conflicts`` raises
    :class:`~repro.errors.ConfigurationError`.
    """
    system = DifferenceConstraints()
    scheduled = [l for l in sorted(demands) if demands[l] > 0]
    for link in scheduled:
        demand = demands[link]
        if demand > frame_slots:
            raise InfeasibleScheduleError(
                f"link {link} demands {demand} slots > frame of {frame_slots}")
        system.add_lower(ORIGIN, link, 0)
        system.add_upper(ORIGIN, link, frame_slots - demand)
    for a, b in _pairs_among(conflicts, scheduled):
        if order.precedes(a, b):
            first, second = a, b
        else:
            first, second = b, a
        # s_second >= s_first + d_first  <=>  s_first <= s_second - d_first
        system.add(second, first, -demands[first])
    return system


def schedule_from_order(conflicts: ConflictIndex, demands: Mapping[Link, int],
                        frame_slots: int, order: TransmissionOrder,
                        earliest: bool = True) -> Schedule:
    """Recover a concrete conflict-free schedule from a transmission order.

    This is the paper's "Bellman-Ford on the conflict graph" step.  Raises
    :class:`~repro.errors.InfeasibleScheduleError` (carrying the negative
    cycle) if no schedule consistent with the order fits in ``frame_slots``.

    Parameters
    ----------
    earliest:
        If true (default), return the componentwise-earliest start times
        consistent with the order; otherwise the latest.
    """
    system = order_constraints(conflicts, demands, frame_slots, order)
    if earliest:
        # Minimal solution of {x_v <= x_u + w} = negated maximal solution of
        # the reversed system over y = -x (y_u <= y_v + w).
        reversed_system = DifferenceConstraints()
        for u, v, w in system.edges:
            reversed_system.add(v, u, w)
        solution = reversed_system.solve(origin=ORIGIN)
        starts = {vertex: -value for vertex, value in solution.items()}
    else:
        starts = system.solve(origin=ORIGIN)

    schedule = Schedule(frame_slots)
    for link in sorted(demands):
        if demands[link] <= 0:
            continue
        start = starts[link]
        start_slot = int(round(start))
        if abs(start - start_slot) > 1e-6:  # pragma: no cover - defensive
            raise InfeasibleScheduleError(
                f"non-integral start {start} for link {link}")
        schedule.assign(link, SlotBlock(start_slot, demands[link]))
    schedule.validate(conflicts)
    return schedule

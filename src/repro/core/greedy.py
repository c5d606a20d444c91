"""Greedy slot packing: the baselines and the greedy solver arm.

:func:`greedy_schedule` is the comparator the ILP is judged against in
E1/E7: sequential first-fit assignment of contiguous blocks, processing
links in one of three orders.  Greedy packing is conflict-free by
construction but knows nothing about end-to-end delay, so its schedules
typically suffer one wrap per hop on unlucky routes.

:func:`greedy_packings` compacts a deterministic first-fit portfolio
into a region with one Bellman-Ford pass per strategy
(:func:`~repro.core.ordering.schedule_from_order`).  It is the third
rung of the engine's certificate ladder and the core of the greedy arm,
:func:`greedy_minimum_slots`, which searches a gap the bounds leave open
in ``"greedy"`` mode, and in ``"auto"`` mode above
:data:`~repro.core.policy.AUTO_THRESHOLD` (S37 in DESIGN.md).  The arm
is *sound, never complete*: every schedule it emits is validated
conflict-free (S8) and checked against every delay budget it was given,
and when a budget fails it reports infeasibility instead of degrading a
guarantee.  What it concedes is minimality; E21 measures the gap.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.conflict import ConflictIndex, _Demanded
from repro.core.delay import path_delay_slots
from repro.core.ilp import DelayConstraint, ILPResult
from repro.core.minslots import MinSlotResult, demand_lower_bound
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.policy import SolverPolicy
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError, InfeasibleScheduleError
from repro.net.topology import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import SolverEngine

#: Deterministic first-fit strategies the greedy arm tries, in order.
GREEDY_PORTFOLIO = ("demand", "index")


def _processing_order(view: _Demanded, strategy: str,
                      rng: Optional[np.random.Generator]) -> Sequence[int]:
    """The order a strategy places a search's demanded links in.

    Local indices of ``view``, whose canonical order is the ``"index"``
    strategy's.
    """
    count = len(view.demand)
    if strategy == "index":
        return range(count)
    if strategy == "demand":
        # Heaviest demand first (classic first-fit-decreasing), canonical
        # tie-break for determinism.
        return view.heaviest
    if strategy == "random":
        if rng is None:
            raise ConfigurationError("strategy='random' requires an rng")
        return [int(i) for i in rng.permutation(count)]
    raise ConfigurationError(f"unknown greedy strategy {strategy!r}")


def _first_fit(view: _Demanded, order: Sequence[int],
               limit: Optional[int], strategy: str) -> list[int]:
    """Start slot of every demanded link, placed first-fit in ``order``.

    Each link takes the earliest start whose block overlaps no placed
    conflicting link's block; with ``limit`` given, a block that cannot
    end by it raises :class:`~repro.errors.InfeasibleScheduleError`.
    """
    demand, near = view.demand, view.near
    start = [-1] * len(demand)
    for i in order:
        length = demand[i]
        candidate = 0
        for begin, end in sorted([(start[j], start[j] + demand[j])
                                  for j in near[i] if start[j] >= 0]):
            if candidate + length <= begin:
                break
            if end > candidate:
                candidate = end
        if limit is not None and candidate + length > limit:
            raise InfeasibleScheduleError(
                f"greedy({strategy}) could not fit link {view.links[i]} "
                f"({length} slots) within {limit} slots")
        start[i] = candidate
    return start


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
    view = _Demanded(conflicts, demands)
    order = _processing_order(view, strategy, rng)
    start = _first_fit(view, order, frame_slots, strategy)
    demand = view.demand
    span = max((start[i] + demand[i] for i in order), default=1)
    schedule = Schedule(frame_slots if frame_slots is not None else span)
    for i in order:
        schedule.assign(view.links[i], SlotBlock(start[i], demand[i]))
    schedule.validate(conflicts)
    return schedule


def greedy_packings(conflicts: ConflictIndex, demands: Mapping[Link, int],
                    region: int
                    ) -> Iterator[tuple[str, TransmissionOrder, Schedule]]:
    """The portfolio's packings that fit ``region``, in portfolio order.

    Each :data:`GREEDY_PORTFOLIO` strategy packs the links first-fit into
    an unbounded frame; the order its start slots induce is re-solved to
    the componentwise-earliest schedule by one Bellman-Ford pass
    (:func:`~repro.core.ordering.schedule_from_order`).  A strategy whose
    order cannot fit ``region`` yields nothing.  Each yielded schedule is
    ``region`` slots long and conflict-free; delay budgets are the
    caller's to check.
    """
    for strategy in GREEDY_PORTFOLIO:
        raw = greedy_schedule(conflicts, demands, frame_slots=None,
                              strategy=strategy)
        order = TransmissionOrder.from_schedule(raw)
        try:
            packed = schedule_from_order(conflicts, demands, region, order)
        except InfeasibleScheduleError:
            continue
        yield strategy, order, packed


def _check_delays(schedule: Schedule,
                  delay_constraints: Sequence[DelayConstraint]
                  ) -> tuple[Optional[int], list[str]]:
    """Max path delay and the names of budget-violating constraints."""
    max_delay: Optional[int] = None
    violated: list[str] = []
    for constraint in delay_constraints:
        delay = path_delay_slots(schedule, constraint.route)
        if max_delay is None or delay > max_delay:
            max_delay = delay
        if delay > constraint.budget_slots:
            violated.append(constraint.name)
    return max_delay, violated


def _heuristic_result(status: str,
                      schedule: Schedule,
                      order: TransmissionOrder,
                      lower: int,
                      delay_constraints: Sequence[DelayConstraint],
                      meta: dict,
                      solve_seconds: float) -> MinSlotResult:
    """Package the greedy arm's schedule as a :class:`MinSlotResult`.

    Runs the arm's soundness gate: the schedule must meet every delay
    budget at the full frame length, or the arm reports infeasibility
    (``core.zones.delay_rejects``).  Also records the gap against the
    node-clique lower bound in ``meta["gap_vs_lower_bound"]``.
    """
    max_delay, violated = _check_delays(schedule, delay_constraints)
    slots = schedule.makespan()
    meta = dict(meta)
    meta["lower_bound"] = lower
    if lower > 0:
        meta["gap_vs_lower_bound"] = round((slots - lower) / lower, 6)
    if violated:
        obs.counter("core.zones.delay_rejects").inc()
        meta["delay_violations"] = violated
        return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                             probes=[(slots, False)], meta=meta)
    ilp = ILPResult(True, schedule, order,
                    max_delay if delay_constraints else None,
                    solve_seconds, status, 0, 0)
    return MinSlotResult(slots=slots, ilp=ilp, lower_bound=lower,
                         probes=[(slots, True)], meta=meta)


def greedy_minimum_slots(conflicts: ConflictIndex,
                         demands: Mapping[Link, int],
                         frame_slots: int,
                         delay_constraints: Sequence[DelayConstraint] = (),
                         engine: Optional["SolverEngine"] = None,
                         policy: Optional[SolverPolicy] = None
                         ) -> MinSlotResult:
    """The greedy arm: the :func:`greedy_packings` portfolio, best makespan.

    Semantics match :func:`~repro.core.minslots.minimum_slots` -- a
    region of the ``frame_slots``-slot frame (at most the policy's
    ``max_region``) carrying every demand conflict-free within its delay
    budget -- except the region is *small*, not provably minimal.  The
    packing with the smallest makespan wins (first strategy wins ties);
    it is published only if it meets every delay budget.  ``engine`` is
    accepted for signature symmetry with :func:`minimum_slots`; no ILP is
    ever solved.  :func:`minimum_slots` reaches this arm only on a search
    its bounds leave open.
    """
    del engine  # symmetric signature; the greedy arm never solves ILPs
    policy = SolverPolicy.coerce(policy)
    ceiling = (frame_slots if policy.max_region is None
               else min(policy.max_region, frame_slots))
    lower = demand_lower_bound(demands)
    obs.counter("core.zones.greedy_solves").inc()
    started = time.perf_counter()
    best: Optional[tuple[int, str, TransmissionOrder, Schedule]] = None
    with obs.span("core.greedy.solve", mode="greedy",
                  frame_slots=frame_slots):
        if lower <= ceiling:
            for strategy, order, packed in greedy_packings(
                    conflicts, demands, ceiling):
                makespan = packed.makespan()
                if best is None or makespan < best[0]:
                    best = (makespan, strategy, order, packed)
    meta: dict = {"mode": "greedy"}
    if best is None:
        return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                             probes=[], meta=meta)
    ____, strategy, order, packed = best
    meta["strategy"] = strategy
    schedule = Schedule(frame_slots, dict(packed.items()))
    schedule.validate(conflicts)
    return _heuristic_result(
        f"greedy({strategy})", schedule, order, lower, delay_constraints,
        meta, time.perf_counter() - started)

"""Joint slot/order ILP with end-to-end delay constraints.

This is the optimization at the heart of the NET-COOP companion paper: given
per-link slot demands, a conflict graph and a frame of ``S`` data slots,
decide whether a conflict-free schedule exists that also meets every
guaranteed flow's end-to-end delay budget -- and optionally find the one
minimizing the maximum path delay.

Formulation
-----------
Integer start variables ``s_l`` in ``[0, S - d_l]`` per demanded link and a
binary order variable ``o_ab`` per conflicting pair (``o_ab = 1`` iff ``a``
transmits before ``b``), coupled by the classic disjunctive big-M pair

    ``s_a + d_a <= s_b + S (1 - o_ab)``
    ``s_b + d_b <= s_a + S o_ab``

with big-M equal to ``S`` (tight, since starts live in ``[0, S)``).

For a route ``(l1, ..., lk)`` the end-to-end relaying delay telescopes to

    ``D = s_k + d_k - s_1 + S * sum_i w_i``

where the wrap indicator ``w_i`` of consecutive hops equals ``1 - o`` (or
``o``) of the corresponding conflicting pair -- consecutive route links
always share a router, hence always conflict, hence always carry an order
variable.  ``D <= budget`` is then linear.

Solved with :func:`scipy.optimize.milp` (HiGHS branch-and-cut).  Before
building the model, a conflict clique of demanded links weighing more
than the region refutes the problem without the solver (pairwise
conflicting links need disjoint blocks); HiGHS is slow to prove such
problems infeasible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro import obs
from repro.core.conflict import (
    ConflictIndex,
    _greedy_clique_demand,
    _pairs_among,
)
from repro.core.ordering import TransmissionOrder
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError, SolverError
from repro.net.topology import Link


@dataclass(frozen=True)
class DelayConstraint:
    """One guaranteed flow's routed path and its delay budget in slots."""

    name: str
    route: tuple[Link, ...]
    budget_slots: int

    def __post_init__(self) -> None:
        if not self.route:
            raise ConfigurationError(f"{self.name}: empty route")
        if self.budget_slots <= 0:
            raise ConfigurationError(f"{self.name}: budget must be positive")
        for (____, mid), (nxt, ____) in zip(self.route, self.route[1:]):
            if mid != nxt:
                raise ConfigurationError(f"{self.name}: route not contiguous")


def delay_constraints_for(flows: Iterable,
                          slot_duration_s: float) -> list[DelayConstraint]:
    """DelayConstraints for every flow with a delay budget, in whole slots.

    ``slot_duration_s`` is the frame duration over its data slots -- the
    slot unit the ILP reasons in.  Flows without a ``delay_budget_s``
    (best effort) carry no constraint; a budget below one slot raises
    :class:`~repro.errors.ConfigurationError`.
    """
    constraints = []
    for flow in flows:
        if flow.delay_budget_s is None:
            continue
        budget = int(flow.delay_budget_s / slot_duration_s)
        if budget < 1:
            raise ConfigurationError(
                f"flow {flow.name}: delay budget {flow.delay_budget_s}s "
                "is below one slot")
        constraints.append(DelayConstraint(flow.name, flow.route, budget))
    return constraints


@dataclass
class SchedulingProblem:
    """Inputs to the delay-aware scheduling ILP."""

    conflicts: ConflictIndex
    demands: Mapping[Link, int]
    frame_slots: int
    delay_constraints: Sequence[DelayConstraint] = field(default_factory=tuple)
    #: If true, minimize the maximum path delay over all delay constraints
    #: (subject to their budgets); otherwise solve pure feasibility.
    minimize_max_delay: bool = False
    #: Restrict all blocks to the first ``region_slots`` slots of the frame
    #: (the guaranteed-traffic region); the frame length -- and hence the
    #: cost of a wrap -- stays ``frame_slots``.  ``None`` means the whole
    #: frame.  This is the quantity the NET-COOP minimum-slot search shrinks.
    region_slots: Optional[int] = None

    @property
    def effective_region(self) -> int:
        region = self.frame_slots if self.region_slots is None else self.region_slots
        if region <= 0 or region > self.frame_slots:
            raise ConfigurationError(
                f"region_slots {region} must be in 1..frame_slots")
        return region

    def demanded_links(self) -> list[Link]:
        """Links with positive demand, in canonical order."""
        return [l for l in sorted(self.demands) if self.demands[l] > 0]


@dataclass
class ILPResult:
    """Outcome of :func:`solve_schedule_ilp`."""

    feasible: bool
    schedule: Optional[Schedule]
    order: Optional[TransmissionOrder]
    #: Maximum path delay over the delay constraints, in slots (None when no
    #: delay constraints were given or the problem was infeasible).
    max_delay_slots: Optional[int]
    solve_seconds: float
    solver_status: str
    num_variables: int = 0
    num_constraints: int = 0


#: Default branch-and-cut node budget per MILP solve -- the one solver
#: budget.  Unlike a wall-clock limit it is *deterministic*: the same
#: problem under the same budget reaches the same verdict on any machine
#: at any load, so no result depends on the clock.  Every decided solve
#: of the experiments and benchmark workloads closes within 156 nodes
#: (E7's minimise-max-delay solve; admission and churn probes close at
#: the root), so 10,000 leaves ~60x headroom for harder instances.  The
#: budget still bounds the heavy tail of big-M disjunctive formulations,
#: where a single infeasibility proof can run for minutes: an undecided
#: all-links grid3x3 probe (E14) spends 18-22 s on 10,000 nodes on a
#: 2-vCPU Xeon with HiGHS from SciPy 1.17 -- an undecided probe costs
#: seconds, not minutes.
DEFAULT_NODE_LIMIT = 10_000


def solve_schedule_ilp(problem: SchedulingProblem,
                       node_limit: Optional[int] = None) -> ILPResult:
    """Solve the joint slot/order scheduling ILP.

    Returns an :class:`ILPResult`; infeasibility is reported in the result
    (``feasible=False``), while unexpected solver failures -- including
    exhausting ``node_limit`` branch-and-cut nodes (default
    :data:`DEFAULT_NODE_LIMIT`) without an answer -- raise
    :class:`~repro.errors.SolverError`.

    The node budget is *deterministic*: the same problem under the same
    budget reaches the same verdict on any machine at any load, which is
    what keeps budgeted verdicts (admission decisions, gap probes)
    bitwise-reproducible.
    """
    obs.counter("core.ilp.solves").inc()
    with obs.span("core.ilp.solve", frame_slots=problem.frame_slots):
        result = _solve(problem, node_limit)
    obs.histogram("core.ilp.variables").observe(result.num_variables)
    obs.histogram("core.ilp.constraints").observe(result.num_constraints)
    if not result.feasible:
        obs.counter("core.ilp.infeasible").inc()
    return result


def _solve(problem: SchedulingProblem,
           node_limit: Optional[int] = None) -> ILPResult:
    frame = problem.frame_slots
    if frame <= 0:
        raise ConfigurationError("frame_slots must be positive")
    region = problem.effective_region
    links = problem.demanded_links()

    route_links = {l for c in problem.delay_constraints for l in c.route}
    missing = route_links - set(links)
    if missing:
        raise ConfigurationError(
            f"delay-constrained routes use undemanded links: {sorted(missing)}")

    # Quick exits that do not need a solver.
    if not links:
        return ILPResult(True, Schedule(frame), TransmissionOrder({}), None,
                         0.0, "trivial", 0, 0)
    clique = _greedy_clique_demand(problem.conflicts, problem.demands, region)
    if clique > region:
        obs.counter("core.ilp.clique_refutations").inc()
        return ILPResult(False, None, None, None, 0.0,
                         f"conflict clique of {clique} slots exceeds "
                         f"region {region}", 0, 0)

    # -- variable layout ---------------------------------------------------
    s_index = {link: i for i, link in enumerate(links)}
    pairs = _pairs_among(problem.conflicts, links)
    o_index = {pair: len(links) + j for j, pair in enumerate(pairs)}
    pair_set = set(pairs)
    num_vars = len(links) + len(pairs)
    dmax_index = None
    if problem.minimize_max_delay and problem.delay_constraints:
        dmax_index = num_vars
        num_vars += 1

    def order_var(a: Link, b: Link) -> tuple[int, bool]:
        """(variable index, polarity): value == polarity means a before b."""
        if (a, b) in pair_set:
            return o_index[(a, b)], True
        if (b, a) in pair_set:
            return o_index[(b, a)], False
        raise ConfigurationError(
            f"consecutive route links {a}, {b} do not conflict; "
            "is the conflict graph built with hops >= 1 over these links?")

    rows: list[dict[int, float]] = []
    lower: list[float] = []
    upper: list[float] = []

    def add_row(coeffs: dict[int, float], lb: float, ub: float) -> None:
        rows.append(coeffs)
        lower.append(lb)
        upper.append(ub)

    # -- disjunctive conflict constraints -----------------------------------
    for a, b in pairs:
        sa, sb = s_index[a], s_index[b]
        o = o_index[(a, b)]
        da, db = problem.demands[a], problem.demands[b]
        # s_a - s_b + S*o <= S - d_a   (active when o = 1: a before b)
        add_row({sa: 1.0, sb: -1.0, o: float(frame)}, -np.inf, frame - da)
        # s_b - s_a - S*o <= -d_b      (active when o = 0: b before a)
        add_row({sb: 1.0, sa: -1.0, o: -float(frame)}, -np.inf, -db)

    # -- delay constraints ---------------------------------------------------
    for constraint in problem.delay_constraints:
        route = constraint.route
        first, last = route[0], route[-1]
        coeffs: dict[int, float] = {}

        def accumulate(index: int, value: float) -> None:
            coeffs[index] = coeffs.get(index, 0.0) + value

        accumulate(s_index[last], 1.0)
        accumulate(s_index[first], -1.0)
        constant = float(problem.demands[last])
        # Each consecutive pair contributes S * w, with w expressed through
        # the pair's order variable.
        for prev, nxt in zip(route, route[1:]):
            var, polarity = order_var(prev, nxt)
            if polarity:
                # w = 1 - o  =>  S*w = S - S*o
                constant += frame
                accumulate(var, -float(frame))
            else:
                # w = o  =>  S*w = S*o
                accumulate(var, float(frame))
        # D = coeffs . x + constant
        if dmax_index is not None:
            # D - Dmax <= -constant  (i.e. D <= Dmax)
            with_dmax = dict(coeffs)
            with_dmax[dmax_index] = with_dmax.get(dmax_index, 0.0) - 1.0
            add_row(with_dmax, -np.inf, -constant)
        add_row(dict(coeffs), -np.inf, constraint.budget_slots - constant)

    # -- bounds, integrality, objective --------------------------------------
    var_lower = np.zeros(num_vars)
    var_upper = np.empty(num_vars)
    integrality = np.ones(num_vars)
    for link, i in s_index.items():
        var_upper[i] = region - problem.demands[link]
    for pair, j in o_index.items():
        var_upper[j] = 1.0
    objective = np.zeros(num_vars)
    if dmax_index is not None:
        var_upper[dmax_index] = max(c.budget_slots
                                    for c in problem.delay_constraints)
        integrality[dmax_index] = 0.0
        objective[dmax_index] = 1.0

    # -- assemble and solve ---------------------------------------------------
    matrix = sparse.lil_matrix((len(rows), num_vars))
    for r, coeffs in enumerate(rows):
        for c, value in coeffs.items():
            matrix[r, c] = value
    constraints = []
    if rows:
        constraints.append(LinearConstraint(
            matrix.tocsr(), np.array(lower), np.array(upper)))

    options = {"presolve": True,
               "node_limit": (DEFAULT_NODE_LIMIT if node_limit is None
                              else node_limit)}

    started = time.perf_counter()
    result = milp(c=objective, constraints=constraints,
                  integrality=integrality,
                  bounds=Bounds(var_lower, var_upper),
                  options=options)
    elapsed = time.perf_counter() - started

    if result.status == 2:  # infeasible
        return ILPResult(False, None, None, None, elapsed, result.message,
                         num_vars, len(rows))
    # status 1 = node limit; if HiGHS found an incumbent, use it
    # (it is a valid conflict-free schedule, merely unproven-optimal for
    # minimizing objectives).  No incumbent -> explicit failure.
    if result.status not in (0, 1) or result.x is None:
        raise SolverError(
            f"MILP solver failed (status {result.status}): {result.message}")

    values = np.asarray(result.x)
    schedule = Schedule(frame)
    for link, i in s_index.items():
        start = int(round(values[i]))
        schedule.assign(link, SlotBlock(start, problem.demands[link]))
    schedule.validate(problem.conflicts)

    pair_decisions = {
        pair: bool(round(values[j])) for pair, j in o_index.items()}
    order = TransmissionOrder.from_pairs(pair_decisions)

    max_delay = None
    if problem.delay_constraints:
        from repro.core.delay import path_delay_slots
        max_delay = max(path_delay_slots(schedule, c.route)
                        for c in problem.delay_constraints)

    return ILPResult(True, schedule, order, max_delay, elapsed,
                     result.message, num_vars, len(rows))

"""Search for the minimum number of guaranteed-traffic slots.

The NET-COOP optimization: find the smallest number ``K`` of TDMA slots that
can carry all guaranteed-QoS flows with their bandwidth and delay
requirements, so that the remaining ``frame_slots - K`` slots are free for
best-effort traffic.

Each search first closes in from two bounds.  The *floor* is the heavier
of :func:`demand_lower_bound` and a greedy conflict clique: pairwise
conflicting links need disjoint blocks, so no region below it fits, and a
floor above the ceiling refutes the search outright.  The *certificate* is
a packing inside the floor that meets every delay budget -- first-fit
decreasing, else a depth-first descent with a node cap; when it exists,
``K`` is the floor and the packing is the published schedule, with no
ILP.  Only the gap between the two is searched: each candidate ``K`` is
checked by solving the delay-aware feasibility ILP with the guaranteed
region restricted to the first ``K`` slots of the frame.

The paper performs a plain linear search upward from a lower bound.  With a
*fixed* frame length the feasibility of the region-restricted problem is
monotone in ``K`` (enlarging the region only relaxes bounds), so a binary
search is also valid; it is provided as an extension
(``SolverPolicy(search="binary")``) and ablated in experiment E10.

The search, like every solver layer, reads the conflict relation as a
:class:`~repro.core.conflict.ConflictIndex`; a demanded link missing
from it raises :class:`~repro.errors.ConfigurationError` rather than
being scheduled as if it conflicted with nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro import obs
from repro.core.conflict import ConflictIndex, max_conflict_clique_demand
from repro.core.ilp import DelayConstraint, ILPResult
from repro.core.ordering import TransmissionOrder
from repro.core.policy import SolverPolicy, require_int
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError
from repro.net.topology import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import SolverEngine


@dataclass
class MinSlotResult:
    """Outcome of :func:`minimum_slots`.

    The schedule and transmission order of the winning probe are exposed
    directly as :attr:`schedule` and :attr:`order`; the full
    :class:`~repro.core.ilp.ILPResult` (solver status, delays, sizes) is
    :attr:`ilp`.
    """

    #: Smallest feasible guaranteed region, or None if even the full frame
    #: cannot carry the demands.
    slots: Optional[int]
    #: The ILP result at the returned region (schedule, order, delays).
    ilp: Optional[ILPResult]
    #: The node-clique lower bound (:func:`demand_lower_bound`); the
    #: search itself starts from the greedy-clique floor, which may be
    #: higher.
    lower_bound: int
    #: (candidate K, feasible?) pairs in the order they were probed.
    probes: list[tuple[int, bool]] = field(default_factory=list)
    #: Solver-arm diagnostics (zone count/sizes, measured optimality gap,
    #: greedy strategy, ...).  ``None`` on the exact arm, whose result is
    #: fully described by the fields above.
    meta: Optional[dict] = None

    @property
    def feasible(self) -> bool:
        return self.slots is not None

    @property
    def iterations(self) -> int:
        return len(self.probes)

    @property
    def schedule(self) -> Optional[Schedule]:
        """The winning probe's schedule (None when infeasible)."""
        return None if self.ilp is None else self.ilp.schedule

    @property
    def order(self) -> Optional[TransmissionOrder]:
        """The winning probe's transmission order (None when infeasible)."""
        return None if self.ilp is None else self.ilp.order


def demand_lower_bound(demands: Mapping[Link, int]) -> int:
    """A cheap valid lower bound on the guaranteed region size.

    The max of (a) the largest single-link demand and (b) the heaviest
    node-induced conflict clique (all links touching one node mutually
    conflict).
    """
    largest = max((d for d in demands.values() if d > 0), default=0)
    return max(largest, max_conflict_clique_demand(demands))


def minimum_slots(conflicts: ConflictIndex, demands: Mapping[Link, int],
                  frame_slots: int,
                  delay_constraints: Sequence[DelayConstraint] = (),
                  engine: Optional["SolverEngine"] = None,
                  policy: "SolverPolicy | str | None" = None
                  ) -> MinSlotResult:
    """Find the minimum guaranteed region ``K`` supporting the demands.

    Parameters
    ----------
    conflicts, demands, frame_slots, delay_constraints:
        As in :class:`~repro.core.ilp.SchedulingProblem`; ``frame_slots`` is
        the *fixed* frame length (wrap cost).  Build the ``conflicts``
        index with :meth:`~repro.core.engine.SolverEngine.conflict_index`
        (any interference model) or
        :func:`~repro.core.conflict.conflict_graph`.
    engine:
        The :class:`~repro.core.engine.SolverEngine` running the probes
        (default: the stateless module-level engine).  Probe verdicts,
        the probe log and the returned schedule are identical for any
        engine configuration; a caching engine merely answers repeated
        probes from its problem cache.
    policy:
        The :class:`~repro.core.policy.SolverPolicy` (or mode string)
        governing *how* to solve: the arm (exact probe search, zoned,
        greedy or ``"auto"``), the probe search (``"linear"``, the
        paper's, or ``"binary"``), the region cap and the per-probe node
        budget.  Default: the engine's own policy (itself defaulting to
        ``"auto"`` with a linear search over the whole frame, which is
        the paper's search at paper scale).
    """
    require_int("frame_slots", frame_slots, 1)
    if engine is None:
        from repro.core.engine import default_engine

        engine = default_engine()
    eff = engine.policy if policy is None else SolverPolicy.coerce(policy)
    ceiling = frame_slots if eff.max_region is None else eff.max_region
    if ceiling > frame_slots:
        raise ConfigurationError("max_region cannot exceed frame_slots")
    demanded = sum(1 for d in demands.values() if d > 0)
    mode = eff.resolve_mode(demanded)
    if mode == "exact":
        with obs.span("core.minslots.search", search=eff.search,
                      frame_slots=frame_slots):
            obs.counter("core.minslots.searches").inc()
            outcome = engine.run_search(
                conflicts, demands, frame_slots, delay_constraints,
                eff.search, ceiling,
                node_limit_per_probe=eff.node_limit_per_probe)
    else:
        from repro.core.zones import (
            greedy_minimum_slots,
            zoned_minimum_slots,
        )

        arm = zoned_minimum_slots if mode == "zoned" else greedy_minimum_slots
        obs.counter("core.minslots.searches").inc()
        outcome = arm(conflicts, demands, frame_slots,
                      delay_constraints=delay_constraints, engine=engine,
                      policy=eff)
    obs.histogram("core.minslots.probes_per_search").observe(
        outcome.iterations)
    if not outcome.feasible:
        obs.counter("core.minslots.infeasible").inc()
    return outcome

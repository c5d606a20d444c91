"""Incremental schedule repair for dynamic meshes (S32).

When the fault injector (:mod:`repro.faults`) kills a node or cuts a link,
the installed TDMA schedule may reference dead links and routed flows may
cross them.  Re-running the full delay-aware ILP on every event is the
*correct* response but a slow one (seconds per probe, E10); the repair
engine exploits the paper's own decomposition instead: a schedule is just
a transmission *order* plus a Bellman-Ford pass over the conflict graph
(:func:`repro.core.ordering.schedule_from_order`).  Faults rarely change
the order that made the old schedule good -- so the engine:

1. recomputes the surviving topology anchored at the gateway
   (:func:`repro.net.topology.surviving_topology`), parking flows whose
   endpoint was partitioned away;
2. rehomes affected flows with :func:`repro.net.routing.shortest_path_route`
   on the survivor;
3. keeps every surviving link's rank from the old schedule, splices new
   route links in just after their upstream predecessor, and recovers slot
   starts with one Bellman-Ford pass -- **zero ILP probes**;
4. verifies the result against the conflict validator and every guaranteed
   flow's slot budget (the same ``path_delay_slots <= budget`` condition
   the ILP enforces);
5. falls back to a full :func:`repro.core.minslots.minimum_slots` re-solve
   only when the local repair is infeasible, shedding flows in
   deterministic order (newest first) if even the re-solve fails.

The engine is a valid :class:`~repro.faults.injector.FaultInjector`
listener (``on_fault``); each topology event yields a
:class:`RepairOutcome` recording the strategy, the probe count and the
flow-level consequences, which is exactly what experiment E17 tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro import obs
from repro.core.delay import path_delay_slots
from repro.core.engine import SolverEngine
from repro.core.ilp import delay_constraints_for
from repro.core.minslots import MinSlotResult, minimum_slots
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.schedule import Schedule
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    InfeasibleScheduleError,
)
from repro.mesh16.frame import MeshFrameConfig
from repro.net.flows import Flow, FlowSet
from repro.net.routing import shortest_path_route
from repro.net.topology import Link, MeshTopology, surviving_topology


@dataclass(frozen=True)
class RepairOutcome:
    """What one repair pass did.

    ``feasible`` is True iff every flow whose endpoints survive is still
    carried -- i.e. nothing had to be shed beyond the physically
    unreachable.  ``strategy`` is ``"noop"`` (fault state unchanged, or a
    non-topology event), ``"local"`` (order-preserving Bellman-Ford repair,
    zero ILP probes) or ``"resolve"`` (full minimum-slots re-solve).
    """

    feasible: bool
    strategy: str
    schedule: Optional[Schedule]
    #: schedule version after this pass (bumped only when it changed)
    version: int
    #: flows whose route changed this pass
    rerouted: tuple[str, ...] = ()
    #: flows parked this pass (unreachable endpoint, or shed for capacity)
    parked: tuple[str, ...] = ()
    #: previously-parked flows carried again this pass
    readmitted: tuple[str, ...] = ()
    #: ILP probes consumed (0 for noop/local)
    ilp_probes: int = 0

    @property
    def changed(self) -> bool:
        return self.strategy != "noop"


class RepairEngine:
    """Online schedule maintenance under fault churn.

    Parameters
    ----------
    topology:
        The base (pre-fault) mesh.
    frame_config:
        Frame timing; ``data_slots`` is the schedule's frame length and the
        slot duration converts delay budgets to slots, exactly as the
        admission controller does.
    gateway:
        Anchor node: flows whose endpoint is partitioned from the gateway
        are parked.  The gateway itself must never be a crash victim
        (protect it in the fault plan).
    interference:
        The :class:`~repro.phy.models.InterferenceModel` every repair
        schedules against: ``ProtocolModel(hops=k)`` (``None``:
        ``ProtocolModel(hops=2)``, the 802.16 mesh default) or a
        :class:`~repro.phy.models.SinrModel` for physical-model
        interference (needs node positions).
    engine:
        The :class:`~repro.core.engine.SolverEngine` sharing conflict
        indexes and solved probes across this engine's repair passes
        (default: a private instance whose caches live exactly as long as
        this repair engine).  Full re-solves run a binary min-slot search
        under the rest of the engine's policy (mode, node budget).
    """

    def __init__(self, topology: MeshTopology, frame_config: MeshFrameConfig,
                 gateway: int = 0,
                 engine: Optional[SolverEngine] = None,
                 shed_key=None,
                 dead_nodes: Iterable[int] = (),
                 dead_edges: Iterable[tuple[int, int]] = (),
                 interference=None) -> None:
        from repro.phy.models import coerce_interference

        if not topology.has_node(gateway):
            raise ConfigurationError(f"gateway {gateway} not in topology")
        self.engine = engine if engine is not None else SolverEngine()
        self.base_topology = topology
        self.frame = frame_config
        self.gateway = gateway
        #: interference-model backend for all conflict graphs this
        #: engine builds (repairs and full re-solves alike)
        self.interference = coerce_interference(interference)
        #: initial fault state: a mobility stream's world at t=0 rarely has
        #: every union-topology link up, so the engine can be born degraded
        #: and :meth:`install` then routes on the t=0 survivor rather than
        #: on links that do not exist yet.
        self._dead_nodes: frozenset[int] = frozenset(dead_nodes)
        self._dead_edges: frozenset[tuple[int, int]] = frozenset(
            (min(u, v), max(u, v)) for u, v in dead_edges)
        if self._dead_nodes or self._dead_edges:
            self.alive, self.unreachable = surviving_topology(
                topology, self._dead_nodes, self._dead_edges, anchor=gateway)
        else:
            self.alive = topology
            self.unreachable = frozenset()
        #: every managed flow definition (route-free), insertion-ordered
        self._flows: dict[str, Flow] = {}
        #: currently-carried routed flows (subset of _flows, same order)
        self._carried: dict[str, Flow] = {}
        #: optional ``name -> sortable`` shed-priority hook: when capacity
        #: sheds are unavoidable, candidates are stably sorted by this key
        #: and the largest key sheds first (the QoS layer uses it to shed
        #: best effort before nrtPS before the real-time classes).  With
        #: no key the legacy newest-first order is untouched.
        self.shed_key = shed_key
        self.schedule: Optional[Schedule] = None
        self.version = 0
        self.history: list[RepairOutcome] = []

    # -- queries ------------------------------------------------------------

    @property
    def carried_flows(self) -> list[Flow]:
        """Currently-scheduled routed flows, insertion order."""
        return list(self._carried.values())

    @property
    def parked_flows(self) -> list[str]:
        """Names of managed flows not currently carried."""
        return [n for n in self._flows if n not in self._carried]

    @property
    def dead_nodes(self) -> frozenset[int]:
        return self._dead_nodes

    @property
    def dead_edges(self) -> frozenset[tuple[int, int]]:
        return self._dead_edges

    @property
    def slot_duration_s(self) -> float:
        return self.frame.frame_duration_s / self.frame.data_slots

    def budget_slots(self, flow: Flow) -> int:
        """A flow's delay budget in data slots (admission-controller rule)."""
        (constraint,) = delay_constraints_for([flow], self.slot_duration_s)
        return constraint.budget_slots

    # -- installation -------------------------------------------------------

    def install(self, flows: Iterable[Flow]) -> RepairOutcome:
        """Admit the initial flow set (full solve).

        On a fault-free mesh every flow is carried.  With an initial
        fault state (``dead_nodes=`` / ``dead_edges=`` at construction,
        e.g. a mobility stream's t=0 world) flows whose endpoints are
        unreachable start out parked and are readmitted by a later
        :meth:`retarget` once their endpoints come into range.
        """
        if self._flows:
            raise ConfigurationError("install() may only be called once")
        for flow in flows:
            self._flows[flow.name] = flow.with_route(())
        carried, _, _, _ = self._partition(self.alive, self.unreachable)
        result = self._solve(list(carried.values()))
        if not result.feasible:
            raise AdmissionError(
                f"initial flow set is infeasible in {self.frame.data_slots} "
                "slots")
        self._carried = carried
        self.schedule = result.schedule
        self.version = 1
        outcome = RepairOutcome(
            feasible=True, strategy="resolve", schedule=self.schedule,
            version=self.version, rerouted=tuple(carried),
            ilp_probes=result.iterations)
        self.history.append(outcome)
        return outcome

    # -- fault reaction ------------------------------------------------------

    def on_fault(self, event) -> None:
        """:class:`~repro.faults.injector.FaultInjector` listener hook."""
        self.apply(event)

    def apply(self, event) -> RepairOutcome:
        """React to one fault event; returns what was done.

        Non-topology events (loss steps, clock glitches) never change the
        schedule.  Repeated or redundant topology events (crashing a dead
        node) are detected by fault-state comparison and are no-ops, which
        makes ``apply`` idempotent per event.
        """
        if self.schedule is None:
            raise ConfigurationError("install() a flow set first")
        if not getattr(event, "is_topology_event", False):
            return self._noop()
        dead_nodes = set(self._dead_nodes)
        dead_edges = set(self._dead_edges)
        if event.kind == "node_down":
            dead_nodes.add(event.node)
        elif event.kind == "node_up":
            dead_nodes.discard(event.node)
        elif event.kind == "link_down":
            dead_edges.add(event.link)
        else:
            dead_edges.discard(event.link)
        return self.retarget(frozenset(dead_nodes), frozenset(dead_edges))

    def retarget(self, dead_nodes: frozenset[int],
                 dead_edges: frozenset[tuple[int, int]]) -> RepairOutcome:
        """Drive the carried set and schedule to a new fault state."""
        if (dead_nodes == self._dead_nodes
                and dead_edges == self._dead_edges):
            return self._noop()
        with obs.span("core.repair.retarget"):
            return self._retarget(dead_nodes, dead_edges)

    def _retarget(self, dead_nodes: frozenset[int],
                  dead_edges: frozenset[tuple[int, int]]) -> RepairOutcome:
        alive, unreachable = surviving_topology(
            self.base_topology, dead_nodes, dead_edges, anchor=self.gateway)
        carried, rerouted, parked, readmitted = self._partition(
            alive, unreachable)
        self._dead_nodes = dead_nodes
        self._dead_edges = dead_edges
        self.alive = alive
        self.unreachable = unreachable

        routes_changed = bool(rerouted or parked or readmitted)
        flows = list(carried.values())
        demands = self._demands(flows)
        conflicts = self.engine.conflict_index(
            alive, interference=self.interference, links=sorted(demands))

        # 1. unchanged routes: the old schedule restricted to the demanded
        #    links may simply still be valid (down events only ever shrink
        #    the conflict graph; up events can grow it, hence the check).
        if not routes_changed:
            kept = self.schedule.restrict(set(demands))
            if (set(kept.links()) == set(demands)
                    and not kept.violations(conflicts)):
                self._commit(carried, kept,
                             bump=kept.to_dict() != self.schedule.to_dict())
                outcome = RepairOutcome(
                    feasible=True, strategy="local", schedule=self.schedule,
                    version=self.version)
                return self._record(outcome)

        # 2. local repair: old ranks + spliced-in new links, one BF pass.
        local = self._local_repair(flows, demands, conflicts)
        if local is not None:
            self._commit(carried, local, bump=True)
            outcome = RepairOutcome(
                feasible=True, strategy="local", schedule=self.schedule,
                version=self.version, rerouted=tuple(rerouted),
                parked=tuple(parked), readmitted=tuple(readmitted))
            return self._record(outcome)

        # 3. full re-solve, shedding newest-first if even that fails.  The
        #    empty carried set is trivially feasible, so this terminates.
        shed: list[str] = []
        # pop() sheds from the end: readmissions go first (a new arrival is
        # rejected before any established flow is disturbed), then rerouted
        # flows, then untouched carried flows, each newest-first.
        candidates = [n for n in carried
                      if n not in readmitted and n not in rerouted]
        candidates += list(rerouted) + list(readmitted)
        if self.shed_key is not None:
            # stable: within one priority level the newest-first order above
            # is preserved
            candidates.sort(key=self.shed_key)
        probes = 0
        while True:
            result = self._solve(list(carried.values()))
            probes += result.iterations
            if result.feasible:
                break
            victim = candidates.pop()
            del carried[victim]
            shed.append(victim)
        self._commit(carried, result.schedule
                     if result.schedule is not None
                     else Schedule(self.frame.data_slots), bump=True)
        outcome = RepairOutcome(
            feasible=not shed, strategy="resolve", schedule=self.schedule,
            version=self.version, rerouted=tuple(rerouted),
            parked=tuple(parked) + tuple(shed),
            readmitted=tuple(n for n in readmitted if n not in shed),
            ilp_probes=probes)
        return self._record(outcome)

    def peek_resolve(self, dead_nodes: Optional[frozenset[int]] = None,
                     dead_edges: Optional[frozenset[tuple[int, int]]] = None
                     ) -> MinSlotResult:
        """Full re-solve for a fault state, without mutating the engine.

        Defaults to the current fault state.  This is the baseline E17
        compares local repair against, and the oracle the property tests
        check the repair verdict with.
        """
        if dead_nodes is None:
            dead_nodes = self._dead_nodes
        if dead_edges is None:
            dead_edges = self._dead_edges
        alive, unreachable = surviving_topology(
            self.base_topology, dead_nodes, dead_edges, anchor=self.gateway)
        carried, _, _, _ = self._partition(alive, unreachable)
        return self._solve(list(carried.values()), topology=alive)

    # -- internals ----------------------------------------------------------

    def _noop(self) -> RepairOutcome:
        outcome = RepairOutcome(feasible=True, strategy="noop",
                                schedule=self.schedule, version=self.version)
        return self._record(outcome)

    def _record(self, outcome: RepairOutcome) -> RepairOutcome:
        obs.counter(f"core.repair.{outcome.strategy}").inc()
        if not outcome.feasible:
            obs.counter("core.repair.shed_passes").inc()
        if outcome.ilp_probes:
            obs.counter("core.repair.ilp_probes").inc(outcome.ilp_probes)
        self.history.append(outcome)
        return outcome

    def _route(self, base: Flow, topology: Optional[MeshTopology] = None
               ) -> Flow:
        topo = topology if topology is not None else self.alive
        return base.with_route(shortest_path_route(topo, base.src, base.dst))

    def _partition(self, alive: MeshTopology, unreachable: frozenset[int]
                   ) -> tuple[dict[str, Flow], list[str], list[str],
                              list[str]]:
        """Split managed flows against a candidate surviving topology.

        Returns (carried routed flows, rerouted names, newly-parked names,
        readmitted names); pure function of engine flow state + arguments.
        """
        carried: dict[str, Flow] = {}
        rerouted: list[str] = []
        parked: list[str] = []
        readmitted: list[str] = []
        for name, base in self._flows.items():
            was_carried = name in self._carried
            if base.src in unreachable or base.dst in unreachable:
                if was_carried:
                    parked.append(name)
                continue
            old = self._carried.get(name)
            if old is not None and all(alive.has_link(l) for l in old.route):
                carried[name] = old
            else:
                carried[name] = self._route(base, alive)
                (rerouted if was_carried else readmitted).append(name)
        return carried, rerouted, parked, readmitted

    def _demands(self, flows: list[Flow]) -> dict[Link, int]:
        return FlowSet(flows).link_demands(
            self.frame.frame_duration_s, self.frame.data_slot_capacity_bits)

    def _solve(self, flows: list[Flow],
               topology: Optional[MeshTopology] = None) -> MinSlotResult:
        topo = topology if topology is not None else self.alive
        demands = self._demands(flows)
        conflicts = self.engine.conflict_index(
            topo, interference=self.interference,
            links=sorted(demands))
        return minimum_slots(
            conflicts, demands, self.frame.data_slots,
            delay_constraints=delay_constraints_for(
                flows, self.slot_duration_s),
            engine=self.engine,
            policy=replace(self.engine.policy, search="binary"))

    def _spliced_order(self, flows: list[Flow],
                       demands: dict[Link, int]) -> TransmissionOrder:
        """The old schedule's order with new route links spliced in.

        Surviving links keep the rank their old block start implies; each
        link new to the schedule is spliced in half a rank after its
        upstream neighbour on the (insertion-ordered) flow route that
        introduced it, so packets still flow downstream without extra
        wraps.  Rank ties resolve on the canonical link order inside
        :class:`TransmissionOrder`, keeping the repair deterministic.
        """
        ranks: dict[Link, float] = {
            link: float(block.start) for link, block in self.schedule.items()
            if link in demands}
        for flow in flows:
            prev = -1.0
            for link in flow.route:
                if link in ranks:
                    prev = ranks[link]
                else:
                    ranks[link] = prev + 0.5
                    prev = ranks[link]
        return TransmissionOrder(ranks)

    def _local_repair(self, flows: list[Flow], demands: dict[Link, int],
                      conflicts) -> Optional[Schedule]:
        """Order-preserving Bellman-Ford repair; None if infeasible."""
        order = self._spliced_order(flows, demands)
        try:
            schedule = schedule_from_order(conflicts, demands,
                                           self.frame.data_slots, order)
        except InfeasibleScheduleError:
            return None
        for flow in flows:
            if flow.delay_budget_s is None:
                continue
            if path_delay_slots(schedule, flow.route) > self.budget_slots(flow):
                return None
        return schedule

    def _commit(self, carried: dict[str, Flow], schedule: Schedule,
                bump: bool) -> None:
        self._carried = carried
        self.schedule = schedule
        if bump:
            self.version += 1

"""repro.api -- the one-stop :class:`Scenario` facade.

The library's building blocks (topologies, flow sets, conflict graphs,
the minimum-slot search, the packet-level emulation) compose through six
imports and as many intermediate values.  :class:`Scenario` packages the
canonical composition -- the one every example and experiment starts
from -- behind a small fluent object::

    from repro import Scenario, Flow, chain_topology

    scenario = Scenario(
        topology=chain_topology(6),
        flows=[Flow("voip0", src=0, dst=5, rate_bps=80_000,
                    delay_budget_s=0.05)])
    result = scenario.route().schedule()
    print(result.slots, result.schedule)

Each step stays inspectable: ``scenario.demands``, ``scenario.conflicts``
and ``scenario.delay_constraints`` expose the intermediates the chain
used to make callers compute by hand, and :meth:`Scenario.simulate`
drives the full TDMA-over-WiFi emulation against the schedule the facade
just produced.  Nothing here adds behaviour -- every method delegates to
the same public functions the long-hand chain calls, so facade and
chain produce identical results.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.core.engine import SolverEngine
from repro.core.ilp import delay_constraints_for
from repro.core.minslots import MinSlotResult, minimum_slots
from repro.core.policy import SolverPolicy
from repro.errors import ConfigurationError
from repro.mesh16.frame import MeshFrameConfig, default_frame_config
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import MeshTopology

FlowsLike = Union[FlowSet, Iterable[Flow]]


class Scenario:
    """One mesh + one flow set, with the canonical pipeline as methods.

    Parameters
    ----------
    topology:
        The mesh to schedule on.
    flows:
        A :class:`~repro.net.flows.FlowSet` or any iterable of
        :class:`~repro.net.flows.Flow`; routed or not (call
        :meth:`route` for the latter).
    frame:
        Frame geometry; defaults to
        :func:`~repro.mesh16.frame.default_frame_config`.
    gateway:
        Anchor node for tree orderings and the emulation's timebase.
    interference:
        The :class:`~repro.phy.models.InterferenceModel` backend the
        conflict graph is built with -- ``ProtocolModel(hops=k)``
        (``None``: ``ProtocolModel(hops=2)``, the 802.16 mesh default)
        or a :class:`~repro.phy.models.SinrModel` for physical-model
        interference with adaptive MCS (needs node positions).  See
        ``docs/interference.md``.
    engine:
        Optional shared :class:`~repro.core.engine.SolverEngine`.  Each
        scenario gets its own engine by default, so repeated
        :meth:`schedule` calls reuse the cached conflict index without
        leaking state between scenarios; pass one explicitly to share the
        index cache across scenarios.
    solver:
        The :class:`~repro.core.policy.SolverPolicy` (or mode string:
        ``"exact"``, ``"greedy"``, ``"auto"``) governing how
        :meth:`schedule` searches a gap its bounds leave open (a search
        the bounds close returns the proven optimum in every mode).
        Defaults to the engine's policy when ``engine=`` is given, else
        to the ``"auto"`` policy -- the exact arm at paper scale, the
        greedy arm above the link threshold.
    mobility:
        Optional :class:`~repro.mobility.stream.TopologyStream`
        describing a *moving* mesh.  Mutually exclusive with
        ``topology`` -- the scenario's topology becomes the stream's
        union base (the gateway's component of every node and link that
        ever exists), and :meth:`simulate_mobility` carries the flows
        across the churn.
    """

    def __init__(self, topology: Optional[MeshTopology] = None,
                 flows: Optional[FlowsLike] = None,
                 frame: Optional[MeshFrameConfig] = None,
                 gateway: int = 0,
                 engine: Optional[SolverEngine] = None,
                 service_flows=None, mobility=None,
                 solver: Union[SolverPolicy, str, None] = None,
                 interference=None) -> None:
        from repro.phy.models import coerce_interference

        if (flows is None) == (service_flows is None):
            raise ConfigurationError(
                "pass exactly one of flows= or service_flows=")
        #: the interference-model backend conflict graphs come from
        self.interference = coerce_interference(interference)
        if mobility is not None:
            if topology is not None:
                raise ConfigurationError(
                    "pass either topology= or mobility=, not both: a "
                    "mobile scenario's topology is the stream's union "
                    "base")
            topology = mobility.union_topology(gateway)[0]
        elif topology is None:
            raise ConfigurationError(
                "a Scenario needs topology= or mobility=")
        #: the mobility stream, when constructed via ``mobility=``
        self.mobility = mobility
        if service_flows is not None:
            from repro.qos.model import ServiceFlowSet

            self.service_flows = (
                service_flows if isinstance(service_flows, ServiceFlowSet)
                else ServiceFlowSet(list(service_flows)))
            #: the plain-flow projection the scheduling pipeline runs on
            flows = self.service_flows.to_flow_set()
        else:
            #: class-aware flow set when constructed via ``service_flows=``
            self.service_flows = None
        self.topology = topology
        self.flows = (flows if isinstance(flows, FlowSet)
                      else FlowSet(list(flows)))
        self.frame = frame if frame is not None else default_frame_config()
        self.gateway = gateway
        #: solver engine owning this scenario's caches
        if engine is not None:
            self.engine = engine
            #: the policy :meth:`schedule` solves under
            self.solver = (engine.policy if solver is None
                           else SolverPolicy.coerce(solver))
        else:
            self.solver = SolverPolicy.coerce(solver)
            self.engine = SolverEngine(policy=self.solver)
        #: result of the last :meth:`schedule` call
        self.minslots: Optional[MinSlotResult] = None

    # -- pipeline steps -----------------------------------------------------

    def route(self) -> "Scenario":
        """Route every flow over shortest paths; returns ``self``."""
        if self.service_flows is not None:
            from repro.qos.model import route_service_flows

            self.service_flows = route_service_flows(self.topology,
                                                     self.service_flows)
            self.flows = self.service_flows.to_flow_set()
            return self
        self.flows = route_all(self.topology, self.flows)
        return self

    def schedule(self, enforce_delay: bool = True) -> MinSlotResult:
        """Run the minimum-slot search for the routed flows.

        *How* to solve -- exact, greedy or auto, plus the probe
        search, region and node-budget knobs -- is the scenario's
        ``solver=`` policy.

        Returns the :class:`~repro.core.minslots.MinSlotResult`; its
        ``.schedule`` / ``.order`` / ``.slots`` are the solution.  The
        result is also kept on ``self.minslots`` so :meth:`simulate`
        can pick it up.
        """
        self._require_routed("schedule")
        self.minslots = minimum_slots(
            self.conflicts, self.demands, self.frame.data_slots,
            delay_constraints=(self.delay_constraints
                               if enforce_delay else ()),
            engine=self.engine, policy=self.solver)
        return self.minslots

    def simulate(self, duration_s: float = 5.0, *,
                 rngs=None, seed: Optional[int] = None, **kwargs):
        """Run the TDMA-over-WiFi emulation against the last schedule.

        Requires a feasible :meth:`schedule` call first (or pass
        ``schedule=`` explicitly in ``kwargs``).  Randomness follows the
        standard ``rngs=``/``seed=`` pair; remaining keyword arguments
        go to :func:`repro.analysis.scenarios.run_tdma_scenario`
        (``drift_ppm``, ``sync_config``, ``arq``, ...).
        """
        from repro.analysis.scenarios import run_tdma_scenario

        self._require_routed("simulate")
        schedule = kwargs.pop("schedule", None)
        if schedule is None:
            if self.minslots is None or self.minslots.schedule is None:
                raise ConfigurationError(
                    "simulate() needs a schedule: call .schedule() first "
                    "(and check it was feasible), or pass schedule=")
            schedule = self.minslots.schedule
        return run_tdma_scenario(
            self.topology, self.flows, self.frame, schedule, duration_s,
            rngs=rngs, seed=seed, gateway=self.gateway, **kwargs)

    def simulate_qos(self, discipline: str = "strict",
                     num_frames: int = 200, **kwargs):
        """Grant-level service-class simulation over this scenario.

        Requires construction via ``service_flows=``.  Builds the
        saturating grant schedule (guaranteed reservations plus
        water-filled leftover, via
        :func:`repro.qos.planner.grant_schedule_for`) and plays
        ``num_frames`` frames under ``discipline``; returns the
        :class:`repro.qos.simulate.QosRunResult`.
        """
        from repro.qos.planner import grant_schedule_for
        from repro.qos.simulate import simulate_service_flows

        if self.service_flows is None:
            raise ConfigurationError(
                "simulate_qos() needs a scenario built with "
                "service_flows=")
        schedule, routed = grant_schedule_for(
            self.topology, self.service_flows, self.frame,
            interference=self.interference, engine=self.engine)
        self.service_flows = routed
        self.flows = routed.to_flow_set()
        return simulate_service_flows(routed, schedule, self.frame,
                                      discipline, num_frames=num_frames,
                                      **kwargs)

    def simulate_mobility(self, **kwargs):
        """Carry the flow set across the moving mesh described by
        ``mobility=``.

        Delegates to :func:`repro.mobility.run.run_mobility` with this
        scenario's frame, gateway, interference model and engine; remaining
        keyword arguments (``gateways``, ``packet_interval_s``, ...)
        pass through.  Flows need no prior :meth:`route` -- the repair
        engine routes and re-routes them as the mesh morphs.  Returns
        the :class:`repro.mobility.run.MobilityRunResult`.
        """
        if self.mobility is None:
            raise ConfigurationError(
                "simulate_mobility() needs a scenario built with "
                "mobility=")
        from repro.mobility.run import run_mobility

        return run_mobility(self.mobility, list(self.flows), self.frame,
                            gateway=self.gateway,
                            interference=self.interference,
                            engine=self.engine, **kwargs)

    # -- inspectable intermediates ------------------------------------------

    @property
    def demands(self) -> dict:
        """Per-link slot demands of the routed flows."""
        self._require_routed("demands")
        return self.flows.link_demands(self.frame.frame_duration_s,
                                       self.frame.data_slot_capacity_bits)

    @property
    def conflicts(self):
        """Conflict relation over the demanded links (engine-cached)."""
        return self.engine.conflict_index(
            self.topology, interference=self.interference,
            links=sorted(self.demands))

    @property
    def delay_constraints(self) -> list:
        """Per-guaranteed-flow delay budgets, in data slots."""
        self._require_routed("delay_constraints")
        return delay_constraints_for(
            self.flows, self.frame.frame_duration_s / self.frame.data_slots)

    # -- internals ----------------------------------------------------------

    def _require_routed(self, what: str) -> None:
        unrouted = [f.name for f in self.flows if not f.is_routed]
        if unrouted:
            raise ConfigurationError(
                f"{what} needs routed flows; call .route() first "
                f"(unrouted: {', '.join(unrouted)})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Scenario({self.topology.name}, {len(self.flows)} flows, "
                f"{self.frame.data_slots} data slots)")

"""repro -- Guaranteed QoS in mesh networks: WiMAX mesh emulated over WiFi.

A from-scratch reproduction of Djukic & Valaee, *"Towards Guaranteed QoS in
Mesh Networks: Emulating WiMAX Mesh over WiFi Hardware"* (ICDCS 2007) and
its companion scheduling papers (NET-COOP 2007, ToN 2009).

The library has two halves:

**Scheduling** (:mod:`repro.core`): conflict graphs over directed mesh
links, the delay-aware joint slot/order ILP, the linear search for the
minimum number of guaranteed slots, transmission-order -> schedule recovery
via Bellman-Ford, the wrap-free ordering on scheduling trees, and greedy
baselines.

**Emulation** (:mod:`repro.overlay` + substrates): a discrete-event
simulation of the 802.16 mesh frame run in software over raw-broadcast
802.11, with drifting per-node clocks, beacon synchronization, guard-time
dimensioning -- compared packet-by-packet against native 802.11 DCF.

**Dynamics** (:mod:`repro.faults` + :mod:`repro.core.repair`): seeded
fault injection (node crashes, link cuts, loss steps, clock glitches)
driven through first-class hooks, and an incremental schedule-repair
engine that reroutes around failures and patches the TDMA schedule
locally, falling back to a full re-solve only when it must.

Quickstart::

    from repro import Scenario, Flow, chain_topology

    scenario = Scenario(
        topology=chain_topology(6),
        flows=[Flow("voip0", src=0, dst=5, rate_bps=80_000,
                    delay_budget_s=0.1)])
    result = scenario.route().schedule()
    print(result.slots, result.schedule)

:class:`~repro.api.Scenario` wraps the canonical pipeline (route ->
demands -> conflict graph -> minimum-slot search -> emulation); every
intermediate stays reachable (``scenario.demands``,
``scenario.conflicts``) and the underlying functions remain public for
piecewise use.  See ``examples/`` for full scenarios, ``benchmarks/``
for the experiment suite (EXPERIMENTS.md maps each to the paper), and
``docs/observability.md`` for the :mod:`repro.obs` metrics/tracing
layer.
"""

from repro.api import Scenario
from repro.core import (
    AdmissionController,
    AdmissionDecision,
    ConflictIndex,
    RepairEngine,
    RepairOutcome,
    Schedule,
    SchedulingProblem,
    SlotBlock,
    SolverEngine,
    SolverPolicy,
    TransmissionOrder,
    conflict_graph,
    greedy_minimum_slots,
    greedy_schedule,
    min_delay_tree_order,
    minimum_slots,
    path_delay_slots,
    path_wraps,
    schedule_from_order,
    solve_schedule_ilp,
)
from repro.core.ilp import DelayConstraint
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    InfeasibleScheduleError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
    SolverError,
)
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.mesh16 import MeshFrameConfig, default_frame_config
from repro.mobility import (
    MobilityTrace,
    RadioRangeModel,
    RandomWaypointModel,
    TopologyStream,
    run_mobility,
)
from repro.net import (
    Flow,
    FlowSet,
    MeshTopology,
    chain_topology,
    gateway_tree,
    grid_topology,
    random_disk_topology,
    route_all,
    star_topology,
)
from repro.overlay import required_guard_s
from repro.phy import (
    InterferenceModel,
    McsTable,
    PathLossModel,
    ProtocolModel,
    SinrModel,
)
from repro.qos import (
    QosAdmissionController,
    QosRunResult,
    ServiceClass,
    ServiceFlow,
    ServiceFlowSet,
    TrafficContract,
    make_scheduler,
    simulate_service_flows,
)
from repro.resilience import HealthMonitor, ResilienceConfig
from repro.sim import DriftingClock, RngRegistry, Simulator
from repro.traffic import G711, G723, G729, FlowQoS, VoipCodec

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionError",
    "ConfigurationError",
    "ConflictIndex",
    "DelayConstraint",
    "DriftingClock",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "Flow",
    "FlowQoS",
    "FlowSet",
    "G711",
    "G723",
    "G729",
    "HealthMonitor",
    "InfeasibleScheduleError",
    "InterferenceModel",
    "McsTable",
    "MeshFrameConfig",
    "MeshTopology",
    "MobilityTrace",
    "PathLossModel",
    "ProtocolModel",
    "QosAdmissionController",
    "RadioRangeModel",
    "RandomWaypointModel",
    "QosRunResult",
    "RepairEngine",
    "RepairOutcome",
    "ReproError",
    "ResilienceConfig",
    "RngRegistry",
    "RoutingError",
    "Scenario",
    "Schedule",
    "SchedulingError",
    "SchedulingProblem",
    "ServiceClass",
    "ServiceFlow",
    "ServiceFlowSet",
    "SimulationError",
    "SinrModel",
    "Simulator",
    "SlotBlock",
    "SolverEngine",
    "SolverError",
    "SolverPolicy",
    "TopologyStream",
    "TrafficContract",
    "TransmissionOrder",
    "VoipCodec",
    "chain_topology",
    "conflict_graph",
    "default_frame_config",
    "gateway_tree",
    "greedy_minimum_slots",
    "greedy_schedule",
    "grid_topology",
    "make_scheduler",
    "min_delay_tree_order",
    "minimum_slots",
    "path_delay_slots",
    "path_wraps",
    "random_disk_topology",
    "required_guard_s",
    "route_all",
    "run_mobility",
    "schedule_from_order",
    "simulate_service_flows",
    "solve_schedule_ilp",
    "star_topology",
]

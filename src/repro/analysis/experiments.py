"""The reconstructed experiment suite (E1-E23 in DESIGN.md; E22 retired).

Each function runs one experiment end-to-end and returns an
:class:`ExperimentResult` with the rows a paper table/figure would plot.
Next to each function, one :class:`Experiment` declaration in
:data:`ALL_EXPERIMENTS` holds everything else about it: its shard axis,
the reduced parameters the tier-1 identity test pins, the benchmark
parameters ``benchmarks/test_bench_experiments.py`` runs, its trailing
wall-clock columns, and a shape check that fails when a table does not
show the shape the paper predicts.  EXPERIMENTS.md records the measured
shapes against the expected ones.

All experiments are deterministic given their ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.analysis.scenarios import (
    make_voip_flows,
    run_dcf_scenario,
    run_tdma_scenario,
    schedule_for_flows,
)
from repro.core.admission import AdmissionController
from repro.core.conflict import _greedy_clique_demand
from repro.core.delay import path_delay_slots, path_wraps
from repro.core.engine import BOUNDS_CLOSED, SolverEngine
from repro.core.greedy import greedy_minimum_slots, greedy_schedule
from repro.core.guarantees import check_guarantees
from repro.core.repair import RepairEngine
from repro.faults import FaultInjector, FaultPlan
from repro.core.ilp import (
    DelayConstraint,
    SchedulingProblem,
    delay_constraints_for,
)
from repro.core.minslots import demand_lower_bound, minimum_slots
from repro.core.ordering import schedule_from_order
from repro.core.policy import SolverPolicy
from repro.core.schedule import Schedule
from repro.core.tree_order import (
    adversarial_tree_order,
    min_delay_tree_order,
    naive_tree_order,
)
from repro.errors import ConfigurationError, InfeasibleScheduleError
from repro.mesh16.frame import MeshFrameConfig, default_frame_config
from repro.mobility.run import _flood_margin
from repro.net.flows import Flow, FlowSet
from repro.net.routing import gateway_tree, route_all
from repro.net.topology import (
    MeshTopology,
    bfs_levels,
    binary_tree_topology,
    chain_topology,
    grid_topology,
    random_disk_topology,
)
from repro.overlay.guard import required_guard_s, slot_overhead_fraction
from repro.overlay.sync import SyncConfig
from repro.phy.models import ProtocolModel
from repro.sim.random import RngRegistry
from repro.traffic.voip import G711, G729, VoipCodec
from repro.units import MS, US


@dataclass
class ExperimentResult:
    """Rows of one reconstructed table/figure."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""

    def table(self) -> str:
        text = format_table(self.headers, self.rows,
                            title=f"[{self.experiment}] {self.title}")
        if self.notes:
            text += f"\nnote: {self.notes}"
        return text


def _expect(holds: bool, claim: str) -> None:
    """Fail a shape check with ``claim``, the expectation that broke.

    A plain ``assert`` would vanish under ``python -O``.
    """
    if not holds:
        raise AssertionError(claim)


def _records(result: ExperimentResult) -> list[dict]:
    """``result``'s rows as ``{header: cell}`` dicts."""
    return [dict(zip(result.headers, row)) for row in result.rows]


@dataclass(frozen=True)
class Experiment:
    """Everything the suite knows about one experiment, in one place.

    ``run`` builds the table.  ``shape`` raises :class:`AssertionError`
    when a table lacks the shape the paper predicts; :meth:`check` runs
    it after the checks every table owes.  ``reduced`` are the small
    parameters the tier-1 identity test runs and pins, and ``bench`` the
    overrides of ``run``'s defaults the benchmark suite runs; both
    tables must pass the check.  ``shard_axis`` names the sweep
    parameter whose values give independent rows (a fresh RNG registry,
    or pure arithmetic, per value), so the runtime can fan it out across
    workers; ``None`` runs the experiment as one task.  The last
    ``wall_columns`` columns are measured timings, which differ between
    any two runs.
    """

    id: str
    run: Callable[..., ExperimentResult]
    shape: Callable[[ExperimentResult], None]
    shard_axis: Optional[str] = None
    reduced: Mapping[str, Any] = field(default_factory=dict)
    bench: Mapping[str, Any] = field(default_factory=dict)
    wall_columns: int = 0

    def check(self, result: ExperimentResult) -> None:
        """Raise :class:`AssertionError` unless ``result`` is a
        well-formed table of this experiment with the expected shape."""
        _expect(result.experiment == self.id
                and f"[{self.id}]" in result.table(),
                f"{result.experiment} is not a table of {self.id}")
        _expect(bool(result.rows), f"{self.id} produced no rows")
        _expect(all(len(row) == len(result.headers) for row in result.rows),
                f"{self.id} has a row that does not match its headers")
        self.shape(result)


#: Every experiment's declaration, keyed by id (E22 is retired).
ALL_EXPERIMENTS: dict[str, Experiment] = {}


def _declare(experiment_id: str, run: Callable[..., ExperimentResult],
             **facts: Any) -> Callable:
    """Decorate a shape check: declare ``experiment_id`` with it."""
    def register(shape: Callable[[ExperimentResult], None]) -> Callable:
        ALL_EXPERIMENTS[experiment_id] = Experiment(experiment_id, run,
                                                    shape, **facts)
        return shape
    return register


# ---------------------------------------------------------------------------
# E1: minimum guaranteed slots vs number of VoIP calls
# ---------------------------------------------------------------------------

def e01_min_slots(call_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
                  seed: int = 7,
                  frame: Optional[MeshFrameConfig] = None,
                  codec: VoipCodec = G711) -> ExperimentResult:
    """Min slots to carry N gateway VoIP calls: ILP search vs greedy.

    Expected shape: slots grow roughly linearly with calls; the delay-aware
    ILP needs no more slots than delay-oblivious greedy packing needs for
    bandwidth alone *plus* it guarantees the delay budget, which greedy
    violates (wraps column).
    """
    frame = frame or default_frame_config()
    slot_s = frame.frame_duration_s / frame.data_slots
    topology = grid_topology(3, 3)
    solver = SolverEngine()  # one cached conflict index per link set
    result = ExperimentResult(
        "E1", "minimum guaranteed slots vs offered VoIP calls (3x3 grid)",
        ["calls", "lower_bound", "ilp_slots", "ilp_max_wraps",
         "greedy_slots", "greedy_max_wraps", "ilp_feasible"])
    for count in call_counts:
        rngs = RngRegistry(seed=seed)
        flows = make_voip_flows(topology, count, rngs, codec=codec,
                                gateway=0, delay_budget_s=0.1)
        demands = flows.link_demands(frame.frame_duration_s,
                                     frame.data_slot_capacity_bits)
        conflicts = solver.conflict_index(topology, links=demands.keys())
        lower = demand_lower_bound(demands)
        search = minimum_slots(conflicts, demands, frame.data_slots,
                               delay_constraints=delay_constraints_for(
                                   flows, slot_s),
                               engine=solver)
        if search.feasible:
            ilp_schedule = search.schedule
            ilp_wraps = max(path_wraps(ilp_schedule, f.route) for f in flows)
        else:
            ilp_wraps = None
        greedy = greedy_schedule(conflicts, demands)
        greedy_wraps = max(path_wraps(greedy, f.route) for f in flows)
        result.rows.append([count, lower, search.slots, ilp_wraps,
                            greedy.frame_slots, greedy_wraps,
                            search.feasible])
    return result


@_declare("E1", e01_min_slots, shard_axis="call_counts",
          reduced={"call_counts": (1, 2)})
def _e01_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    _expect(all(r["ilp_slots"] is not None for r in rows),
            "every offered load is schedulable")
    slots = [r["ilp_slots"] for r in rows]
    _expect(slots == sorted(slots), "min slots grow with load")
    _expect(all(r["ilp_slots"] >= r["lower_bound"] for r in rows),
            "the ILP never needs fewer slots than the lower bound")


# ---------------------------------------------------------------------------
# E2: end-to-end scheduling delay vs hop count, per ordering policy
# ---------------------------------------------------------------------------

def e02_delay_vs_hops(hop_counts: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
                      frame_slots: int = 16,
                      frame_duration_s: float = 10 * MS) -> ExperimentResult:
    """Delay of one chain flow under four ordering policies.

    Expected shape: the delay-aware ILP and the tree ordering stay at ~one
    frame regardless of hops (zero wraps); the canonical/naive order loses
    roughly a frame every other hop; the adversarial order loses a frame
    per hop.
    """
    solver = SolverEngine()
    result = ExperimentResult(
        "E2", "end-to-end delay vs hops (chain, one flow, 10 ms frame)",
        ["hops", "ilp_ms", "tree_ms", "naive_ms", "adversarial_ms",
         "ilp_wraps", "adversarial_wraps"])
    for hops in hop_counts:
        topology = chain_topology(hops + 1)
        route = tuple((i, i + 1) for i in range(hops))
        demands = {link: 1 for link in route}
        conflicts = solver.conflict_index(topology, links=demands.keys())
        slot_ms = frame_duration_s * 1000 / frame_slots

        ilp = solver.solve(SchedulingProblem(
            conflicts, demands, frame_slots,
            delay_constraints=[DelayConstraint("f", route, frame_slots)],
            minimize_max_delay=True))
        tree = gateway_tree(topology, 0)
        schedules = {
            "ilp": ilp.schedule,
            "tree": schedule_from_order(
                conflicts, demands, frame_slots,
                min_delay_tree_order(tree, 0)),
            "naive": schedule_from_order(
                conflicts, demands, frame_slots, naive_tree_order(tree, 0)),
            "adversarial": schedule_from_order(
                conflicts, demands, frame_slots,
                adversarial_tree_order(tree, 0)),
        }
        delays_ms = {name: path_delay_slots(sched, route) * slot_ms
                     for name, sched in schedules.items()}
        result.rows.append([
            hops, delays_ms["ilp"], delays_ms["tree"], delays_ms["naive"],
            delays_ms["adversarial"],
            path_wraps(schedules["ilp"], route),
            path_wraps(schedules["adversarial"], route)])
    return result


@_declare("E2", e02_delay_vs_hops, shard_axis="hop_counts",
          reduced={"hop_counts": (2, 4, 6)})
def _e02_shape(result: ExperimentResult) -> None:
    frame_ms = 10.0  # the default frame
    rows = _records(result)
    for r in rows:
        _expect(r["ilp_ms"] <= r["tree_ms"] + 1e-9,
                "the ILP order is never slower than the tree order")
        _expect(r["tree_ms"] <= r["adversarial_ms"],
                "the tree order is never slower than the adversarial one")
        _expect(r["ilp_wraps"] == 0, "the ILP order never wraps")
        _expect(r["ilp_ms"] <= frame_ms and r["tree_ms"] <= frame_ms,
                "delay-aware orders stay within one frame at any hop count")
        _expect(r["adversarial_ms"] >= (r["hops"] - 1) * frame_ms * 0.9,
                "the adversarial order pays ~a frame per hop")
    _expect(rows[-1]["adversarial_ms"] > rows[0]["adversarial_ms"],
            "adversarial delay grows with hops")


# ---------------------------------------------------------------------------
# E3: delay vs frame duration
# ---------------------------------------------------------------------------

def e03_delay_vs_frame(frame_durations_ms: Sequence[float] = (4, 8, 10, 16,
                                                              20, 32, 40),
                       hops: int = 6,
                       frame_slots: int = 16) -> ExperimentResult:
    """Worst-case delay scales linearly with frame duration; the slope is
    (wraps + 1), so ordering quality sets the line a flow lives on."""
    topology = chain_topology(hops + 1)
    route = tuple((i, i + 1) for i in range(hops))
    demands = {link: 1 for link in route}
    conflicts = SolverEngine().conflict_index(topology, links=demands.keys())
    tree = gateway_tree(topology, 0)
    good = schedule_from_order(conflicts, demands, frame_slots,
                               min_delay_tree_order(tree, 0))
    bad = schedule_from_order(conflicts, demands, frame_slots,
                              adversarial_tree_order(tree, 0))
    good_slots = path_delay_slots(good, route)
    bad_slots = path_delay_slots(bad, route)

    result = ExperimentResult(
        "E3", f"delay vs frame duration ({hops}-hop chain, {frame_slots} "
        "slots/frame)",
        ["frame_ms", "min_delay_order_ms", "adversarial_order_ms",
         "worst_case_bound_ms"])
    for frame_ms in frame_durations_ms:
        slot_ms = frame_ms / frame_slots
        result.rows.append([
            frame_ms, good_slots * slot_ms, bad_slots * slot_ms,
            (path_wraps(bad, route) + 1) * frame_ms + frame_ms])
    return result


@_declare("E3", e03_delay_vs_frame, shard_axis="frame_durations_ms",
          reduced={"frame_durations_ms": (4, 8, 16)})
def _e03_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    first = rows[0]
    for r in rows:
        scale = r["frame_ms"] / first["frame_ms"]
        for arm in ("min_delay_order_ms", "adversarial_order_ms"):
            _expect(math.isclose(r[arm], first[arm] * scale, rel_tol=1e-6,
                                 abs_tol=1e-12),
                    "delay is linear in frame duration")
        _expect(r["adversarial_order_ms"] > 5 * r["min_delay_order_ms"],
                "the adversarial order is several times the good order")


# ---------------------------------------------------------------------------
# E4: emulation overhead -- guard time vs drift and resync interval
# ---------------------------------------------------------------------------

def e04_overhead(drift_ppms: Sequence[float] = (5, 10, 20, 50),
                 resync_intervals_s: Sequence[float] = (0.1, 0.5, 1.0, 5.0,
                                                        10.0),
                 frame: Optional[MeshFrameConfig] = None) -> ExperimentResult:
    """Required guard and the slot capacity left after paying for it.

    Expected shape: guard grows linearly in drift x resync interval; the
    usable fraction of a slot falls accordingly, collapsing to zero once
    the guard approaches the slot length.
    """
    base = frame or default_frame_config()
    result = ExperimentResult(
        "E4", "guard time and usable slot fraction vs drift / resync period",
        ["drift_ppm", "resync_s", "guard_us", "overhead_frac",
         "slot_capacity_bits"])
    from repro.dot11.params import DATA_HEADER_BITS

    for drift in drift_ppms:
        for interval in resync_intervals_s:
            guard = required_guard_s(drift, interval,
                                     sync_residual_s=10 * US)
            if guard >= base.data_slot_s:
                capacity = 0
                overhead = 1.0
            else:
                mac_bits = base.phy.bits_in(base.data_slot_s - guard)
                capacity = max(0, mac_bits - DATA_HEADER_BITS
                               - base.shim_overhead_bits)
                overhead = slot_overhead_fraction(
                    base.data_slot_s, guard, base.phy.plcp_overhead_s)
            result.rows.append([drift, interval, guard * 1e6, overhead,
                                capacity])
    return result


# The reduced parameters are the defaults: E4 is arithmetic, and its
# check reads corners that a smaller sweep lacks.
@_declare("E4", e04_overhead, shard_axis="drift_ppms")
def _e04_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    guard = {(r["drift_ppm"], r["resync_s"]): r["guard_us"] for r in rows}
    capacity = {(r["drift_ppm"], r["resync_s"]): r["slot_capacity_bits"]
                for r in rows}
    _expect(guard[(50, 1.0)] > guard[(5, 1.0)], "guard grows with drift")
    _expect(guard[(10, 10.0)] > guard[(10, 0.1)],
            "guard grows with the resync interval")
    _expect(guard[(50, 10.0)] > guard[(10, 0.1)],
            "guard grows with drift and interval together")
    _expect(capacity[(50, 10.0)] < capacity[(10, 0.1)],
            "capacity shrinks as the guard grows")
    _expect(capacity[(50, 10.0)] == 0, "the extreme corner is unusable")
    _expect(capacity[(5, 0.1)] > 2000,
            "the benign corner keeps most of the slot")


# ---------------------------------------------------------------------------
# E5: VoIP capacity -- TDMA emulation vs DCF
# ---------------------------------------------------------------------------

def _admit_in_order(topology: MeshTopology, flows: FlowSet,
                    frame: MeshFrameConfig) -> tuple[FlowSet, Schedule]:
    """The calls one admission controller admits, and their schedule.

    ``flows`` are offered in order to a controller over the whole frame;
    with none admitted there is no schedule to run, so it raises
    :class:`~repro.errors.ConfigurationError`.
    """
    controller = AdmissionController(topology, frame.data_slots,
                                     frame.frame_duration_s,
                                     frame.data_slot_capacity_bits)
    for flow in flows:
        controller.try_admit(flow)
    if controller.schedule is None:
        raise ConfigurationError("no flow could be admitted at all")
    return controller.admitted, controller.schedule


def e05_voip_capacity(call_counts: Sequence[int] = (2, 4, 6, 8, 10),
                      duration_s: float = 2.0, seed: int = 11,
                      codec: VoipCodec = G729,
                      delay_target_s: float = 0.05,
                      loss_target: float = 0.02,
                      topology: Optional[MeshTopology] = None
                      ) -> ExperimentResult:
    """Calls meeting QoS targets as offered load grows.

    Expected shape: TDMA admission control caps the number of carried
    calls at the schedulability limit, and every *admitted* call meets its
    target; DCF carries all offered calls but degrades them collectively
    once contention kicks in, with a sharp knee after which almost no call
    meets the target.
    """
    topology = topology or grid_topology(3, 3)
    frame = default_frame_config()
    result = ExperimentResult(
        "E5", "VoIP calls meeting QoS (p95 delay / loss targets) vs load",
        ["offered_calls", "tdma_admitted", "tdma_ok", "dcf_ok",
         "tdma_loss", "dcf_loss", "dcf_collisions"])
    for count in call_counts:
        rngs = RngRegistry(seed=seed)
        flows = make_voip_flows(topology, count, rngs, codec=codec,
                                gateway=0, delay_budget_s=delay_target_s)
        admitted, schedule = _admit_in_order(topology, flows, frame)
        tdma = run_tdma_scenario(topology, admitted, frame, schedule,
                                 duration_s, rngs.spawn("tdma"),
                                 codec=codec)
        tdma_ok = sum(q.meets(max_delay_s=delay_target_s,
                              max_loss=loss_target)
                      for q in tdma.qos.values())
        dcf = run_dcf_scenario(topology, flows, duration_s,
                               rngs.spawn("dcf"), codec=codec)
        dcf_ok = sum(q.meets(max_delay_s=delay_target_s,
                             max_loss=loss_target)
                     for q in dcf.qos.values())
        result.rows.append([count, len(admitted), tdma_ok, dcf_ok,
                            tdma.total_loss_fraction(),
                            dcf.total_loss_fraction(),
                            dcf.extras["collisions"]])
    return result


@_declare("E5", e05_voip_capacity, shard_axis="call_counts",
          reduced={"call_counts": (2, 8), "duration_s": 1.0})
def _e05_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    _expect(all(r["tdma_ok"] == r["tdma_admitted"] for r in rows),
            "every admitted TDMA call meets QoS")
    light, heavy = rows[0], rows[-1]
    _expect(light["tdma_ok"] == light["offered_calls"],
            "TDMA carries every call at light load")
    _expect(light["dcf_ok"] == light["offered_calls"],
            "DCF is clean at light load")
    _expect(heavy["dcf_ok"] < heavy["offered_calls"],
            "DCF degrades past the knee")
    _expect(heavy["dcf_loss"] > light["dcf_loss"],
            "DCF loss grows with load")


# ---------------------------------------------------------------------------
# E6: delay distribution -- TDMA bounded, DCF heavy-tailed
# ---------------------------------------------------------------------------

def e06_delay_cdf(num_calls: int = 6, duration_s: float = 4.0,
                  seed: int = 13, codec: VoipCodec = G729) -> ExperimentResult:
    """Delay percentiles across all packets of all calls, per stack.

    Expected shape: the TDMA column is capped near (wraps + 1) frames and
    nearly flat from p50 to max; the DCF column spreads by orders of
    magnitude between median and tail under contention.
    """
    topology = grid_topology(3, 3)
    frame = default_frame_config()
    rngs = RngRegistry(seed=seed)
    flows = make_voip_flows(topology, num_calls, rngs, codec=codec,
                            gateway=0, delay_budget_s=0.1)
    schedule = schedule_for_flows(topology, flows, frame, method="ilp")
    tdma = run_tdma_scenario(topology, flows, frame, schedule, duration_s,
                             rngs.spawn("tdma"), codec=codec)
    dcf = run_dcf_scenario(topology, flows, duration_s, rngs.spawn("dcf"),
                           codec=codec)

    result = ExperimentResult(
        "E6", f"delay distribution, {num_calls} calls on 3x3 grid",
        ["percentile", "tdma_ms", "dcf_ms"])
    for metric in ("p50_delay_s", "p95_delay_s", "p99_delay_s",
                   "max_delay_s"):
        tdma_value = max(getattr(q, metric) for q in tdma.qos.values())
        dcf_value = max(getattr(q, metric) for q in dcf.qos.values())
        result.rows.append([metric.replace("_delay_s", ""),
                            tdma_value * 1e3, dcf_value * 1e3])
    result.notes = (f"tdma loss {tdma.total_loss_fraction():.4f}, "
                    f"dcf loss {dcf.total_loss_fraction():.4f}")
    return result


@_declare("E6", e06_delay_cdf, reduced={"num_calls": 4, "duration_s": 1.5},
          bench={"duration_s": 3.0})
def _e06_shape(result: ExperimentResult) -> None:
    tdma = {r["percentile"]: r["tdma_ms"] for r in _records(result)}
    dcf = {r["percentile"]: r["dcf_ms"] for r in _records(result)}
    _expect(tdma["max"] < 3 * tdma["p50"] + 1.0,
            "TDMA's max barely exceeds its median (bounded service)")
    _expect(tdma["max"] - tdma["p50"] < 5.0,
            "TDMA delay is capped within ~half a frame")
    _expect(dcf["max"] - dcf["p50"] > tdma["max"] - tdma["p50"],
            "DCF's tail exceeds TDMA's")


# ---------------------------------------------------------------------------
# E7: ordering policies across topologies
# ---------------------------------------------------------------------------

def e07_ordering_compare(seed: int = 17) -> ExperimentResult:
    """Max wraps over all gateway flows, per ordering policy and topology.

    Expected shape: ILP == tree algorithm == 0 wraps on trees; greedy and
    random orders wrap roughly once per hop in the worst case.  On the
    grid (non-tree routes) the ILP still reaches 0; the tree order only
    covers tree links so it is skipped there.
    """
    cases: list[tuple[str, MeshTopology]] = [
        ("chain8", chain_topology(8)),
        ("btree3", binary_tree_topology(3)),
        ("grid3x3", grid_topology(3, 3)),
    ]
    frame_slots = 24
    rngs = RngRegistry(seed=seed)
    solver = SolverEngine()
    result = ExperimentResult(
        "E7", "max wraps across gateway flows, per ordering policy",
        ["topology", "flows", "ilp", "tree", "greedy", "random"])
    for name, topology in cases:
        tree = gateway_tree(topology, 0)
        # One uplink flow from every leaf-most node to the gateway.
        parents = set(tree.values())
        leaves = [n for n in topology.nodes if n != 0 and n not in parents]
        flows = FlowSet()
        for i, leaf in enumerate(leaves):
            flows.add(Flow(f"up{i}", leaf, 0, rate_bps=8000,
                           delay_budget_s=1.0))
        flows = route_all(topology, flows)
        routes = [f.route for f in flows]
        demands: dict = {}
        for route in routes:
            for link in route:
                demands[link] = demands.get(link, 0) + 1
        conflicts = solver.conflict_index(topology, links=demands.keys())

        def max_wraps(schedule) -> int:
            return max(path_wraps(schedule, route) for route in routes)

        ilp = solver.solve(SchedulingProblem(
            conflicts, demands, frame_slots,
            delay_constraints=[DelayConstraint(f"r{i}", r, 10 * frame_slots)
                               for i, r in enumerate(routes)],
            minimize_max_delay=True))
        row: list = [name, len(routes), max_wraps(ilp.schedule)]
        on_tree = all(tree.get(a) == b or tree.get(b) == a
                      for route in routes for a, b in route)
        if on_tree:
            tree_sched = schedule_from_order(
                conflicts, demands, frame_slots, min_delay_tree_order(tree, 0))
            row.append(max_wraps(tree_sched))
        else:
            row.append(None)
        row.append(max_wraps(greedy_schedule(conflicts, demands,
                                             frame_slots=frame_slots)))
        row.append(max_wraps(greedy_schedule(
            conflicts, demands, frame_slots=frame_slots, strategy="random",
            rng=rngs.stream(f"rand/{name}"))))
        result.rows.append(row)
    return result


@_declare("E7", e07_ordering_compare)
def _e07_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    for r in rows:
        _expect(r["ilp"] == 0, f"{r['topology']}: the ILP reaches 0 wraps")
        _expect(r["tree"] is None or r["tree"] == 0,
                f"{r['topology']}: the tree algorithm matches the ILP")
        _expect(r["greedy"] >= r["ilp"] and r["random"] >= r["ilp"],
                f"{r['topology']}: no baseline beats the ILP")
    _expect(any(r["greedy"] > 0 or r["random"] > 0 for r in rows),
            "a baseline wraps somewhere, or the comparison is vacuous")


# ---------------------------------------------------------------------------
# E8: synchronization error over time
# ---------------------------------------------------------------------------

def e08_sync_error(duration_s: float = 5.0, drift_ppm: float = 10.0,
                   seed: int = 19) -> ExperimentResult:
    """Max clock error vs the gateway: sync on / off / with skew discipline.

    Expected shape: without sync the error grows linearly at the drift
    rate (~drift_ppm us per second); with beacon sync it plateaus at the
    jitter-per-hop floor; skew compensation lowers the plateau further.
    Slot collisions stay zero while the error is below the guard.
    """
    topology = grid_topology(3, 3)
    frame = default_frame_config()
    rngs = RngRegistry(seed=seed)
    flows = make_voip_flows(topology, 2, rngs, codec=G729, gateway=0,
                            delay_budget_s=0.1)
    schedule = schedule_for_flows(topology, flows, frame, method="ilp")

    arms = [
        ("sync_off", SyncConfig(enabled=False)),
        ("sync_on", SyncConfig(enabled=True)),
        ("sync_skewcomp", SyncConfig(enabled=True, skew_compensation=True)),
    ]
    result = ExperimentResult(
        "E8", f"max sync error vs gateway over {duration_s:.0f}s "
        f"(3x3 grid, {drift_ppm:.0f} ppm)",
        ["arm", "max_error_us", "final_error_us", "slot_collisions",
         "guard_us"])
    for name, sync_config in arms:
        run = run_tdma_scenario(
            topology, flows, frame, schedule, duration_s,
            RngRegistry(seed=seed).spawn(name), drift_ppm=drift_ppm,
            sync_config=sync_config, codec=G729)
        samples = run.extras["sync_error_samples"]
        result.rows.append([
            name, run.extras["max_sync_error_s"] * 1e6,
            (samples[-1] * 1e6) if samples else 0.0,
            run.extras["slot_collisions"], frame.guard_s * 1e6])
    return result


@_declare("E8", e08_sync_error, reduced={"duration_s": 2.5},
          bench={"duration_s": 6.0})
def _e08_shape(result: ExperimentResult) -> None:
    arms = {r["arm"]: r for r in _records(result)}
    synced = arms["sync_on"]
    _expect(arms["sync_off"]["max_error_us"] > 3 * synced["max_error_us"],
            "free-running error dwarfs the synced plateau")
    _expect(synced["max_error_us"] < synced["guard_us"],
            "synced error stays within the guard")
    _expect(synced["slot_collisions"] == 0,
            "no slot collisions while synced")


# ---------------------------------------------------------------------------
# E9: goodput efficiency vs slot length
# ---------------------------------------------------------------------------

def e09_goodput_efficiency(slot_durations_us: Sequence[float] = (300, 400,
                                                                 525, 800,
                                                                 1200, 2000),
                           guard_us: float = 60.0) -> ExperimentResult:
    """Fraction of raw channel rate delivered as payload, per slot length.

    Expected shape: efficiency rises with slot length (fixed guard + PLCP
    amortized over more payload), asymptoting to ~1 - small residual; very
    short slots are dominated by overhead, quantifying why the emulation
    cannot use 802.16-sized minislots directly on WiFi PHYs.
    """
    frame_ms = 10.0
    phy = default_frame_config().phy
    result = ExperimentResult(
        "E9", "TDMA slot efficiency vs slot duration (802.11b, 60 us guard)",
        ["slot_us", "data_slots_per_frame", "capacity_bits",
         "efficiency", "overhead_frac"])
    for slot_us in slot_durations_us:
        slot_s = slot_us * US
        data_slots = int((frame_ms * MS - 4 * 400 * US) / slot_s)
        if data_slots < 1:
            continue
        config = MeshFrameConfig(
            frame_duration_s=4 * 400 * US + data_slots * slot_s,
            control_slots=4, control_slot_s=400 * US,
            data_slots=data_slots, guard_s=guard_us * US, phy=phy)
        result.rows.append([
            slot_us, data_slots, config.data_slot_capacity_bits,
            config.slot_efficiency,
            slot_overhead_fraction(config.data_slot_s, config.guard_s,
                                   phy.plcp_overhead_s)])
    return result


@_declare("E9", e09_goodput_efficiency, shard_axis="slot_durations_us",
          reduced={"slot_durations_us": (400, 800, 2000)})
def _e09_shape(result: ExperimentResult) -> None:
    efficiency = [r["efficiency"] for r in _records(result)]
    _expect(efficiency == sorted(efficiency),
            "efficiency rises with slot length")
    _expect(all(0 <= e < 1 for e in efficiency),
            "efficiency is a fraction below 1")
    _expect(efficiency[0] < 0.35, "short slots are overhead-dominated")
    _expect(efficiency[-1] > 0.8, "long slots approach the channel rate")


# ---------------------------------------------------------------------------
# E10: solver scaling
# ---------------------------------------------------------------------------

def e10_solver_scaling(grid_sizes: Sequence[tuple[int, int]] = ((2, 2),
                                                                (2, 3),
                                                                (3, 3),
                                                                (3, 4)),
                       seed: int = 23) -> ExperimentResult:
    """ILP size/time vs network size; Bellman-Ford recovery cost.

    Expected shape: ILP time grows quickly with links (binary order
    variables are quadratic in conflicting links); the Bellman-Ford
    recovery from a fixed order stays in the millisecond range -- the
    reason the paper advocates order-then-recover over re-solving.

    On this workload every search closes between the greedy-clique floor
    and the first-fit certificate, so the search pays no ILP probe;
    ``cold_ilp_solves`` counts the probes that did reach the solver.
    ``ilp_seconds`` and ``bf_seconds`` are measured timings, placed last
    so that serial and sharded tables agree on every column before them.
    """
    import time as time_mod

    frame = default_frame_config()
    slot_s = frame.frame_duration_s / frame.data_slots
    result = ExperimentResult(
        "E10", "scheduler cost vs mesh size (gateway VoIP workload)",
        ["grid", "links_demanded", "ilp_vars", "min_slots", "probes",
         "cold_ilp_solves", "ilp_seconds", "bf_seconds"])
    for rows_, cols in grid_sizes:
        topology = grid_topology(rows_, cols)
        rngs = RngRegistry(seed=seed)
        flows = make_voip_flows(topology, max(2, rows_ * cols // 2), rngs,
                                codec=G729, gateway=0, delay_budget_s=0.1)
        demands = flows.link_demands(frame.frame_duration_s,
                                     frame.data_slot_capacity_bits)
        cold = SolverEngine(max_indexes=0)
        conflicts = cold.conflict_index(topology, links=demands.keys())
        constraints = delay_constraints_for(flows, slot_s)
        problem = SchedulingProblem(
            conflicts, demands, frame.data_slots,
            delay_constraints=constraints, minimize_max_delay=True)
        ilp = cold.solve(problem)
        order = ilp.order
        started = time_mod.perf_counter()
        schedule_from_order(conflicts, demands, frame.data_slots, order)
        bf_seconds = time_mod.perf_counter() - started
        search = minimum_slots(conflicts, demands, frame.data_slots,
                               delay_constraints=constraints, engine=cold)
        result.rows.append([
            f"{rows_}x{cols}", len(demands), ilp.num_variables,
            search.slots, search.iterations, cold.stats["ilp_probes"],
            ilp.solve_seconds, bf_seconds])
    return result


@_declare("E10", e10_solver_scaling, shard_axis="grid_sizes",
          reduced={"grid_sizes": ((2, 2), (3, 3))}, wall_columns=2)
def _e10_shape(result: ExperimentResult) -> None:
    _expect(result.headers[-2:] == ["ilp_seconds", "bf_seconds"],
            "the two measured timings come last")
    rows = _records(result)
    variables = [r["ilp_vars"] for r in rows]
    _expect(variables == sorted(variables), "ILP variables grow with mesh")
    for r in rows:
        _expect(r["bf_seconds"] < 0.05, "BF recovery stays ~instant")
        _expect(r["min_slots"] is not None, "every instance is schedulable")
        # every search closes between the greedy-clique floor and the
        # first-fit certificate, so no search pays an ILP probe
        _expect(r["probes"] == 1 and r["cold_ilp_solves"] == 0,
                "every E10 search closes between the bounds")


# ---------------------------------------------------------------------------
# E11: spatial reuse under the k-hop conflict model
# ---------------------------------------------------------------------------

def e11_spatial_reuse(chain_lengths: Sequence[int] = (4, 6, 8, 10, 12, 16),
                      ) -> ExperimentResult:
    """Slots needed for all-links demand on chains, 1-hop vs 2-hop model.

    Expected shape: required slots saturate (at ~3 for 1-hop, ~4-5 for
    2-hop) once the chain outgrows the conflict distance, while total
    demand keeps growing linearly: the schedule reuses slots spatially,
    and utilization (demand/slots) exceeds 1.
    """
    solver = SolverEngine()
    result = ExperimentResult(
        "E11", "slots for all-links demand on chains: spatial reuse",
        ["chain_nodes", "directed_links", "slots_1hop", "slots_2hop",
         "utilization_2hop"])
    for n in chain_lengths:
        topology = chain_topology(n)
        demands = {link: 1 for link in topology.links}
        slots = {}
        for hops in (1, 2):
            conflicts = solver.conflict_index(
                topology, interference=ProtocolModel(hops))
            search = minimum_slots(conflicts, demands,
                                   frame_slots=len(demands),
                                   engine=solver)
            slots[hops] = search.slots
        result.rows.append([
            n, len(demands), slots[1], slots[2],
            len(demands) / slots[2] if slots[2] else float("nan")])
    return result


@_declare("E11", e11_spatial_reuse, shard_axis="chain_lengths",
          reduced={"chain_lengths": (4, 8, 12)})
def _e11_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    one_hop = [r["slots_1hop"] for r in rows]
    two_hop = [r["slots_2hop"] for r in rows]
    _expect(two_hop[-3] == two_hop[-2] == two_hop[-1],
            "2-hop slots saturate")
    _expect(one_hop[-3] == one_hop[-1], "1-hop slots saturate")
    _expect(rows[-1]["directed_links"] > rows[0]["directed_links"],
            "demand keeps growing with the chain")
    _expect(all(one <= two for one, two in zip(one_hop, two_hop)),
            "wider interference needs more slots")
    _expect(rows[-1]["utilization_2hop"] > 2.0,
            "utilization shows real reuse")


# ---------------------------------------------------------------------------
# E12: VoIP MOS at and over the DCF knee
# ---------------------------------------------------------------------------

def e12_voip_mos(call_counts: Sequence[int] = (4, 8), duration_s: float = 2.0,
                 seed: int = 29, codec: VoipCodec = G729) -> ExperimentResult:
    """Worst-call E-model MOS per stack at moderate and heavy load.

    Expected shape: TDMA (with admission control) keeps every *admitted*
    call near the codec's intrinsic MOS ceiling; DCF's worst call collapses
    below 3.0 ("many users dissatisfied") once past the knee.
    """
    topology = grid_topology(3, 3)
    frame = default_frame_config()
    result = ExperimentResult(
        "E12", "worst-call MOS (E-model), TDMA emulation vs DCF",
        ["offered_calls", "tdma_admitted", "tdma_worst_mos", "dcf_worst_mos",
         "tdma_mean_mos", "dcf_mean_mos"])
    for count in call_counts:
        rngs = RngRegistry(seed=seed)
        flows = make_voip_flows(topology, count, rngs, codec=codec,
                                gateway=0, delay_budget_s=0.1)
        admitted, schedule = _admit_in_order(topology, flows, frame)
        tdma = run_tdma_scenario(topology, admitted, frame, schedule,
                                 duration_s, rngs.spawn("tdma"), codec=codec)
        dcf = run_dcf_scenario(topology, flows, duration_s,
                               rngs.spawn("dcf"), codec=codec)
        tdma_mos = [q.mos(codec) for q in tdma.qos.values()]
        dcf_mos = [q.mos(codec) for q in dcf.qos.values()]
        result.rows.append([
            count, len(admitted), min(tdma_mos), min(dcf_mos),
            sum(tdma_mos) / len(tdma_mos), sum(dcf_mos) / len(dcf_mos)])
    return result


# The DCF collapse (worst MOS < 2.5 at 8 calls) needs 2 s: at 1 s the
# worst DCF call still scores 2.88.
@_declare("E12", e12_voip_mos, shard_axis="call_counts",
          reduced={"call_counts": (4, 8), "duration_s": 2.0})
def _e12_shape(result: ExperimentResult) -> None:
    _expect(len(result.rows) == 2, "one moderate and one heavy load")
    moderate, heavy = _records(result)
    _expect(moderate["tdma_worst_mos"] > 3.8,
            "TDMA calls sit near the codec MOS ceiling")
    _expect(heavy["tdma_worst_mos"] > 3.8,
            "TDMA protects admitted calls at heavy load")
    _expect(heavy["dcf_worst_mos"] < 2.5,
            "DCF's worst call collapses past the knee")
    _expect(heavy["tdma_worst_mos"] - heavy["dcf_worst_mos"] > 1.0,
            "TDMA's worst call beats DCF's past the knee")


# ---------------------------------------------------------------------------
# E13: channel errors -- ARQ-less TDMA vs DCF's MAC-layer ARQ
# ---------------------------------------------------------------------------

def e13_channel_errors(error_rates: Sequence[float] = (0.0, 0.01, 0.03,
                                                       0.05, 0.10),
                       num_calls: int = 3, duration_s: float = 2.0,
                       seed: int = 31, codec: VoipCodec = G729
                       ) -> ExperimentResult:
    """Loss and delay under random channel errors, per stack.

    The plain emulated TDMA MAC has no ARQ (broadcast frames are never
    acknowledged), so per-hop channel error rate p compounds to
    ~1-(1-p)^hops end-to-end loss; DCF retransmits and converts most
    channel errors into extra delay instead.  The third arm runs the
    slot-level-ARQ extension (the paper line's future-work item): receivers
    micro-ACK every fragment inside its slot and unacked fragments retry in
    the link's next slot, recovering the loss at a bounded, schedule-shaped
    delay cost.
    """
    topology = grid_topology(3, 3)
    frame = default_frame_config()
    result = ExperimentResult(
        "E13", "VoIP loss/delay vs channel error rate "
        "(TDMA / TDMA+slot-ARQ / DCF)",
        ["per_hop_error", "tdma_loss", "tdma_arq_loss", "dcf_loss",
         "tdma_p95_ms", "tdma_arq_p95_ms", "dcf_p95_ms", "arq_retx",
         "dcf_retries"])
    rngs0 = RngRegistry(seed=seed)
    flows = make_voip_flows(topology, num_calls, rngs0, codec=codec,
                            gateway=0, delay_budget_s=0.1, min_hops=2)
    schedule = schedule_for_flows(topology, flows, frame, method="ilp")
    # The ARQ arm pays the PLCP preamble twice per slot, so it runs on a
    # coarser frame (8 fat slots instead of 16) whose per-slot capacity
    # still fits a whole VoIP packet beside the micro-ACK.
    arq_frame = default_frame_config(data_slots=8)
    arq_schedule = schedule_for_flows(topology, flows, arq_frame,
                                      method="ilp")
    for rate in error_rates:
        rngs = RngRegistry(seed=seed)
        tdma = run_tdma_scenario(topology, flows, frame, schedule,
                                 duration_s, rngs.spawn("tdma"),
                                 codec=codec, channel_error_rate=rate)
        tdma_arq = run_tdma_scenario(topology, flows, arq_frame,
                                     arq_schedule,
                                     duration_s, rngs.spawn("tdma"),
                                     codec=codec, channel_error_rate=rate,
                                     arq=True)
        dcf = run_dcf_scenario(topology, flows, duration_s,
                               rngs.spawn("dcf"), codec=codec,
                               channel_error_rate=rate)
        result.rows.append([
            rate, tdma.total_loss_fraction(),
            tdma_arq.total_loss_fraction(), dcf.total_loss_fraction(),
            max(q.p95_delay_s for q in tdma.qos.values()) * 1e3,
            max(q.p95_delay_s for q in tdma_arq.qos.values()) * 1e3,
            max(q.p95_delay_s for q in dcf.qos.values()) * 1e3,
            tdma_arq.extras["arq_retransmissions"],
            dcf.trace.count("mac.retry")])
    return result


@_declare("E13", e13_channel_errors, shard_axis="error_rates",
          reduced={"error_rates": (0.0, 0.05), "duration_s": 1.0})
def _e13_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    clean, worst = rows[0], rows[-1]
    _expect(clean["tdma_loss"] == clean["tdma_arq_loss"]
            == clean["dcf_loss"] == 0.0, "a clean channel loses nothing")
    losses = [r["tdma_loss"] for r in rows]
    _expect(losses == sorted(losses) and worst["tdma_loss"] > 0.05,
            "plain TDMA loss grows with the error rate")
    _expect(worst["tdma_arq_loss"] <= worst["tdma_loss"] / 3,
            "slot-ARQ recovers most loss")
    _expect(worst["dcf_loss"] <= worst["tdma_loss"] / 3,
            "DCF ARQ recovers most loss")
    # loss only removes samples, shifting the p95 by at most a sample
    # spacing; the ARQ arm pays real delay
    _expect(abs(worst["tdma_p95_ms"] - clean["tdma_p95_ms"])
            < 0.05 * clean["tdma_p95_ms"],
            "plain TDMA delay is pinned by the schedule")
    _expect(worst["tdma_arq_p95_ms"] > clean["tdma_arq_p95_ms"],
            "slot-ARQ pays for recovery in delay")
    _expect(worst["arq_retx"] > 0
            and worst["dcf_retries"] > clean["dcf_retries"],
            "retransmissions grow with the error rate")


# ---------------------------------------------------------------------------
# E14: distributed (DSCH handshake) vs centralized (ILP) scheduling
# ---------------------------------------------------------------------------

def e14_distributed_vs_centralized() -> ExperimentResult:
    """Slots and signalling cost: local negotiation vs global ILP.

    The distributed handshake works against exact interference (it only
    protects receivers it can actually disturb), so it can pack *tighter*
    than the conservative 2-hop centralized model on sparse demands -- but
    it cannot backtrack, so on loaded frames it strands demand the ILP
    would have served.  Three messages per link is its fixed signalling
    price; the ILP's price is central computation (E10).
    """
    from repro.mesh16.distributed import DistributedScheduler

    cases = [
        ("chain6/all", chain_topology(6), None),
        ("grid3x3/all", grid_topology(3, 3), None),
        ("btree3/all", binary_tree_topology(3), None),
    ]
    solver = SolverEngine()
    result = ExperimentResult(
        "E14", "distributed DSCH handshake vs centralized ILP",
        ["case", "links", "central_slots", "distributed_makespan",
         "served", "messages", "opportunities"])
    for name, topology, ____ in cases:
        demands = {link: 1 for link in topology.links}
        conflicts = solver.conflict_index(topology)
        frame = 2 * len(demands)
        central = minimum_slots(
            conflicts, demands, frame, engine=solver,
            policy=SolverPolicy(node_limit_per_probe=100))
        outcome = DistributedScheduler(topology, frame, max_cycles=32,
                                       engine=solver).run(demands)
        result.rows.append([
            name, len(demands), central.slots,
            outcome.schedule.makespan(),
            f"{len(demands) - len(outcome.unserved)}/{len(demands)}",
            outcome.messages, outcome.opportunities_used])
    return result


@_declare("E14", e14_distributed_vs_centralized)
def _e14_shape(result: ExperimentResult) -> None:
    for r in _records(result):
        links, central = r["links"], r["central_slots"]
        makespan = r["distributed_makespan"]
        _expect(r["served"] == f"{links}/{links}",
                f"{r['case']}: demand stranded")
        _expect(r["messages"] == 3 * links,
                f"{r['case']}: three messages per link")
        _expect(makespan <= 2 * central and central <= 2 * makespan,
                f"{r['case']}: within 2x of the centralized region")


# ---------------------------------------------------------------------------
# E15: control-plane ablation -- roster vs distributed mesh election
# ---------------------------------------------------------------------------

def e15_control_plane(duration_s: float = 3.0, drift_ppm: float = 10.0,
                      seed: int = 37) -> ExperimentResult:
    """Synchronization quality under the two control-plane designs.

    The deterministic roster gives every node a turn in strict rotation;
    distributed election (802.16's actual mechanism) decentralizes
    ownership at the cost of holdoff-idled opportunities, recovering some
    density through control-slot *reuse* where the topology allows it.
    Expected shape: decentralization costs beacon density (the roster
    packs every opportunity; election idles some during holdoffs, with the
    sparse chain recovering more than the compact grid), but NOT sync
    quality -- both arms hold the mesh an order of magnitude under the
    guard with zero control collisions and zero loss.
    """
    from repro.mesh16.election import ElectionControlPlane
    from repro.mesh16.network import ControlPlane
    from repro.net.forwarding import SourceRoutedForwarder  # noqa: F401

    frame = default_frame_config()
    result = ExperimentResult(
        "E15", "control plane: roster vs distributed election "
        f"({drift_ppm:.0f} ppm, {duration_s:.0f}s)",
        ["topology", "plane", "max_sync_error_us", "beacons_sent",
         "beacons_per_s", "control_collisions", "voip_loss"])

    cases = [("grid3x3", grid_topology(3, 3)),
             ("chain10", chain_topology(10))]
    arms = [("roster", ControlPlane), ("election", ElectionControlPlane)]
    for topo_name, topology in cases:
        rngs0 = RngRegistry(seed=seed)
        flows = make_voip_flows(topology, 2, rngs0, codec=G729, gateway=0,
                                delay_budget_s=0.1)
        schedule = schedule_for_flows(topology, flows, frame)
        for label, plane_cls in arms:
            # run_tdma_scenario builds its own roster plane, so assemble this
            # run manually to swap the control plane implementation
            from repro.overlay.emulation import TdmaOverlay
            from repro.overlay.sync import SyncConfig, SyncDaemon
            from repro.phy.channel import BroadcastChannel
            from repro.sim.clock import DriftingClock
            from repro.sim.engine import Simulator
            from repro.sim.trace import Trace
            from repro.traffic.sink import SinkRegistry
            from repro.traffic.sources import CbrSource
            from repro.units import ppm as ppm_ratio

            rngs = RngRegistry(seed=seed).spawn(label)
            sim = Simulator()
            trace = Trace(capacity=100_000)
            channel = BroadcastChannel(sim, topology, frame.phy, trace)
            clocks, daemons = {}, {}
            for node in topology.nodes:
                skew = 0.0 if node == 0 else float(
                    rngs.stream(f"k{node}").uniform(-ppm_ratio(drift_ppm),
                                                    ppm_ratio(drift_ppm)))
                clocks[node] = DriftingClock(skew=skew)
                daemons[node] = SyncDaemon(node, 0, clocks[node], SyncConfig(),
                                           rngs.stream(f"s{node}"), trace)
            sinks = SinkRegistry()
            overlay = TdmaOverlay(
                sim, topology, channel, frame,
                plane_cls(topology, 0, frame), schedule, clocks, daemons,
                on_packet=lambda n, p: forwarder.packet_arrived(n, p, sim.now),
                trace=trace)
            forwarder = SourceRoutedForwarder(overlay, sinks.on_delivered,
                                              trace)
            sources = {
                flow.name: CbrSource.for_codec(sim, flow, forwarder.originate,
                                               G729, stop_s=duration_s)
                for flow in flows}
            overlay.start()
            errors = []

            def sample(overlay=overlay, errors=errors):
                errors.append(overlay.max_sync_error_s())
                if sim.now + 0.1 < duration_s:
                    sim.schedule(0.1, sample)

            sim.schedule(0.05, sample)
            sim.run(until=duration_s + 0.2)

            sent = sum(s.sent for s in sources.values())
            received = sum(sinks.sink(name).received for name in sources)
            beacons = trace.count("sync.beacon")
            control_collisions = sum(
                1 for r in trace.records("tdma.rx_corrupt")
                if r["kind"] in ("beacon", "control"))
            result.rows.append([
                topo_name, label, max(errors) * 1e6 if errors else 0.0,
                beacons, beacons / duration_s, control_collisions,
                1.0 - received / sent if sent else 0.0])
    return result


@_declare("E15", e15_control_plane, reduced={"duration_s": 1.5})
def _e15_shape(result: ExperimentResult) -> None:
    guard_us = default_frame_config().guard_s * 1e6
    beacons = {}
    for r in _records(result):
        arm = f"{r['topology']}/{r['plane']}"
        _expect(r["max_sync_error_us"] < guard_us / 2,
                f"{arm}: sync too loose")
        _expect(r["control_collisions"] == 0, f"{arm}: control collisions")
        _expect(r["voip_loss"] == 0, f"{arm}: VoIP loss")
        beacons[r["topology"], r["plane"]] = r["beacons_sent"]
    for topology in ("grid3x3", "chain10"):
        _expect(beacons[topology, "roster"] >= beacons[topology, "election"],
                f"{topology}: the roster packs every control opportunity")
    _expect(beacons["chain10", "election"] >= beacons["grid3x3", "election"],
            "the sparse chain recovers more density than the grid")


# ---------------------------------------------------------------------------
# E16: multi-service -- best-effort capacity left over vs guaranteed load
# ---------------------------------------------------------------------------

def e16_two_class(call_counts: Sequence[int] = (0, 1, 2, 3, 4, 5, 6),
                  seed: int = 41, codec: VoipCodec = G711
                  ) -> ExperimentResult:
    """Best-effort slots remaining as the guaranteed class grows.

    The NET-COOP multi-service picture: each admitted VoIP call enlarges
    the minimum guaranteed region, squeezing the elastic class.  Expected
    shape: the best-effort grant fraction decreases monotonically (to 0 as
    the region approaches the frame), while every guaranteed call keeps a
    feasible delay-bounded schedule.
    """
    from repro.qos import ServiceClass, ServiceFlow, ServiceFlowSet
    from repro.qos.planner import schedule_service_classes

    topology = grid_topology(3, 3)
    frame = default_frame_config()
    # a constant elastic backlog: bulk transfers on two cross-mesh routes
    bulk = route_all(topology, FlowSet([
        Flow("bulk0", 6, 2, rate_bps=800_000),
        Flow("bulk1", 2, 6, rate_bps=800_000),
    ]))
    be_demands = bulk.link_demands(frame.frame_duration_s,
                                   frame.data_slot_capacity_bits)
    solver = SolverEngine()

    result = ExperimentResult(
        "E16", "best-effort capacity vs guaranteed VoIP load (3x3 grid)",
        ["calls", "guaranteed_region", "be_region", "be_slots_granted",
         "be_grant_fraction"])
    for count in call_counts:
        rngs = RngRegistry(seed=seed)
        voip = make_voip_flows(topology, count, rngs, codec=codec,
                               gateway=0, delay_budget_s=0.1)
        # the two legacy classes expressed as 802.16 service flows:
        # delay-bounded VoIP is rtPS, the elastic bulk transfers are BE
        service = ServiceFlowSet(
            [ServiceFlow.from_flow(f, ServiceClass.RTPS) for f in voip]
            + [ServiceFlow.from_flow(f, ServiceClass.BE) for f in bulk])
        g_demands = service.guaranteed_flow_set().link_demands(
            frame.frame_duration_s, frame.data_slot_capacity_bits)
        all_links = set(g_demands) | set(be_demands)
        conflicts = solver.conflict_index(topology, links=all_links)
        try:
            two = schedule_service_classes(conflicts, service, frame)
        except InfeasibleScheduleError:
            result.rows.append([count, None, None, None, None])
            continue
        result.rows.append([
            count, two.guaranteed_region, two.best_effort_region,
            sum(two.best_effort_grants.values()),
            two.grant_fraction(be_demands)])
    return result


@_declare("E16", e16_two_class, shard_axis="call_counts",
          reduced={"call_counts": (0, 2, 4)})
def _e16_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    _expect(all(r["guaranteed_region"] is not None for r in rows),
            "every guaranteed load is schedulable")
    regions = [r["guaranteed_region"] for r in rows]
    fractions = [r["be_grant_fraction"] for r in rows]
    _expect(regions == sorted(regions), "the guaranteed region grows")
    _expect(fractions == sorted(fractions, reverse=True),
            "the best-effort grant fraction shrinks monotonically")
    _expect(fractions[0] > 2 * fractions[-1], "the squeeze is substantial")


def e17_churn(churn_rates: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
              num_calls: int = 3, horizon_s: float = 240.0,
              seed: int = 43, codec: VoipCodec = G729) -> ExperimentResult:
    """Repair-vs-resolve convergence and guarantee compliance under churn.

    A 3x3 gateway mesh carries VoIP calls while a seeded Poisson fault plan
    (:class:`repro.faults.FaultPlan`) kills links and non-gateway nodes at
    ``churn_rate`` events/minute and recovers them after an exponential
    downtime.  Every topology event is pushed through the
    :class:`repro.faults.FaultInjector` into the online
    :class:`repro.core.repair.RepairEngine`; for each event the table
    accounts the convergence window of the strategy actually used against
    the full-re-solve baseline (:meth:`RepairEngine.peek_resolve`).

    Convergence windows are counted in *frames*, the natural deterministic
    unit (wall-clock would break bitwise reproducibility across --jobs):
    one frame per ILP probe (E10 measures probes at seconds each, so one
    frame per probe *under*-states the re-solve's cost), plus the
    distribution flood margin ``depth * ceil(nodes / control_slots) + 1``
    from :mod:`repro.overlay.distribution`, plus one frame-boundary
    activation.  A local Bellman-Ford repair spends zero probes, so its
    window is strictly smaller whenever a detour exists.  Lost packets are
    the affected flows' packets due during the window.  After every event
    the live schedule must pass the S8 conflict validator and every carried
    call the S30 guarantee checker -- the ``conflict_ok``/``guarantee_ok``
    columns assert the paper's claim survives the churn.
    """
    gateway = 0
    frame = default_frame_config()
    result = ExperimentResult(
        "E17", "schedule repair vs full re-solve under fault churn "
        "(3x3 gateway mesh)",
        ["churn_per_min", "events", "local", "resolve", "repair_frames",
         "resolve_frames", "lost_repair", "lost_resolve", "parked",
         "conflict_ok", "guarantee_ok"])

    for rate in churn_rates:
        rngs = RngRegistry(seed=seed)
        topology = grid_topology(3, 3)
        flows = make_voip_flows(topology, num_calls, rngs, codec=codec,
                                gateway=gateway, delay_budget_s=0.1,
                                min_hops=2)
        engine = RepairEngine(topology, frame, gateway=gateway)
        engine.install(flows)
        per_s = rate / 60.0
        plan = FaultPlan.stochastic(
            topology, rngs.stream("faults/plan"), horizon_s,
            node_crash_rate=0.3 * per_s, link_down_rate=0.7 * per_s,
            mean_downtime_s=10.0, protect_nodes=[gateway])
        injector = FaultInjector(plan, topology, listeners=[engine])

        events = local = resolve = parked = 0
        repair_frames: list[int] = []
        resolve_frames: list[int] = []
        lost_repair = lost_resolve = 0
        conflict_ok = guarantee_ok = True
        for event in injector.plan:
            injector.apply(event)
            outcome = engine.history[-1]
            if not outcome.changed:
                continue
            events += 1
            parked += len(outcome.parked)
            margin = _flood_margin(engine.alive, gateway, frame)
            baseline_probes = max(1, engine.peek_resolve().iterations)
            frames_resolve = 1 + baseline_probes + margin
            if outcome.strategy == "local":
                local += 1
                frames_repair = 1 + margin
            else:
                resolve += 1
                frames_repair = 1 + max(1, outcome.ilp_probes) + margin
            repair_frames.append(frames_repair)
            resolve_frames.append(frames_resolve)
            affected = len(set(outcome.rerouted) | set(outcome.parked)
                           | set(outcome.readmitted))
            per_window = lambda frames: affected * math.ceil(
                frames * frame.frame_duration_s / codec.packet_interval_s)
            lost_repair += per_window(frames_repair)
            lost_resolve += per_window(frames_resolve)
            # criterion (b): the live schedule stays conflict-free and
            # every carried call keeps its guarantee after every event
            # (through the repair engine's own conflict-index cache)
            conflicts = engine.engine.conflict_index(
                engine.alive, interference=engine.interference,
                links=engine.schedule.links())
            conflict_ok &= not engine.schedule.violations(conflicts)
            for flow in engine.carried_flows:
                if flow.delay_budget_s is None:
                    continue
                report = check_guarantees(engine.schedule, flow, frame,
                                          codec.packet_bits)
                guarantee_ok &= report.meets_budget(flow.delay_budget_s)
        mean = lambda xs: round(sum(xs) / len(xs), 2) if xs else 0.0
        result.rows.append([
            rate, events, local, resolve, mean(repair_frames),
            mean(resolve_frames), lost_repair, lost_resolve, parked,
            conflict_ok, guarantee_ok])
    result.notes = ("repair_frames/resolve_frames are mean convergence "
                    "windows (compute + flood + activation) in frames; "
                    "windows use one frame per ILP probe, an underestimate "
                    "of the re-solve's real cost (E10)")
    return result


@_declare("E17", e17_churn, shard_axis="churn_rates",
          reduced={"churn_rates": (4.0, 16.0), "num_calls": 5})
def _e17_shape(result: ExperimentResult) -> None:
    for r in _records(result):
        rate = f"{r['churn_per_min']}/min"
        _expect(r["events"] > 0, f"{rate}: churn happens")
        _expect(r["local"] > 0, f"{rate}: local repair fires")
        _expect(r["repair_frames"] < r["resolve_frames"],
                f"{rate}: repair converges faster than the re-solve")
        _expect(r["lost_repair"] <= r["lost_resolve"],
                f"{rate}: repair never loses more than re-solving")
        _expect(r["conflict_ok"] is True and r["guarantee_ok"] is True,
                f"{rate}: the live schedule stays S8-clean and every "
                "carried call meets its guarantee after every event")


# ---------------------------------------------------------------------------
# E18: control-frame loss -- resilient dissemination vs fire-and-forget
# ---------------------------------------------------------------------------

def e18_control_loss(loss_rates: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
                     duration_s: float = 6.0, drift_ppm: float = 50.0,
                     seed: int = 53) -> ExperimentResult:
    """Schedule safety under a lossy control subframe (S33).

    A 3x3 gateway mesh runs the full emulation while control receptions
    (beacons and MSH-DSCH announcements) are dropped at an ambient
    ``loss_rate``, and a scripted ``control_loss`` fault additionally
    blacks out the victim corner node's links (rate 0.999) for two
    seconds mid-run.  The victim's oscillator is pinned at exactly
    ``+drift_ppm`` so its clock walks away from the gateway at the worst
    admissible rate while beacons cannot reach it.  Against this the
    gateway floods three schedule versions whose pairwise unions
    *conflict*, so any node stranded on a stale map transmits into the
    new map's slots.

    Each loss rate runs two arms.  The **resilient** arm enables the S33
    machinery: implicit-ack coverage commit with epoch re-floods and
    make-before-break transition versions in the distributor, plus the
    :class:`~repro.resilience.health.HealthMonitor`'s guard widening and
    fail-safe mute in the MAC.  The **legacy** arm is the pre-S33
    fire-and-forget flood with no health gating.  Every 20 ms the union
    of the slot maps actually being executed is checked with the S8
    conflict validator, and every transmission is checked against the
    gateway-clock slot boundaries (``overlay.guard_violations``).
    Expected shape: the resilient arm holds **zero** S8 violations and
    zero guard violations at every loss rate (the victim widens its
    guard, then mutes, and the make-before-break construction keeps
    every concurrently applied pair of maps conflict-free by
    construction); the legacy arm desyncs -- stale maps collide and the
    drifted victim transmits outside its slots.  The distributed-mode
    handshake (E14) is re-run at the same loss rate as a side table:
    retries grow with loss but the outcome stays conflict-free and
    fully served.
    """
    from repro.core.schedule import SlotBlock
    from repro.faults.events import FaultEvent
    from repro.mesh16.distributed import DistributedScheduler
    from repro.mesh16.network import ControlPlane
    from repro.net.forwarding import SourceRoutedForwarder
    from repro.overlay.distribution import ScheduleDistributor
    from repro.overlay.emulation import TdmaOverlay
    from repro.overlay.sync import SyncConfig, SyncDaemon
    from repro.phy.channel import BroadcastChannel
    from repro.resilience import HealthMonitor, ResilienceConfig
    from repro.sim.clock import DriftingClock
    from repro.sim.engine import Simulator
    from repro.sim.trace import Trace
    from repro.traffic.sink import SinkRegistry
    from repro.traffic.sources import CbrSource
    from repro.units import ppm as ppm_ratio
    from repro import obs as obs_api

    gateway, victim = 0, 8
    topology = grid_topology(3, 3)
    frame = default_frame_config()
    codec = G729
    flows = route_all(topology, FlowSet([
        Flow("up8", victim, gateway, rate_bps=codec.wire_rate_bps,
             delay_budget_s=0.1),
        Flow("dn4", gateway, 4, rate_bps=codec.wire_rate_bps,
             delay_budget_s=0.1),
    ]))
    schedule_a = schedule_for_flows(topology, flows, frame, method="greedy")
    # A deliberately conflicting sibling: same links, blocks shifted, so
    # the union of the two maps violates the conflict graph and a node
    # stranded on one while neighbours run the other transmits into them.
    shift = 2
    schedule_b = Schedule(frame.data_slots)
    for link, block in schedule_a.items():
        schedule_b.assign(link, SlotBlock(
            (block.start + shift) % (frame.data_slots - block.length + 1),
            block.length))
    all_links = set(dict(schedule_a.items())) | set(dict(schedule_b.items()))
    conflicts = SolverEngine().conflict_index(topology, links=all_links)

    blackout_links = [tuple(sorted((victim, n)))
                      for n in topology.neighbors(victim)]
    result = ExperimentResult(
        "E18", "control-frame loss: resilient dissemination vs "
        f"fire-and-forget ({drift_ppm:.0f} ppm victim, "
        "2 s blackout, conflicting floods)",
        ["loss_rate", "resilient", "mixed_samples", "s8_violations",
         "guard_violations", "mute_events", "commits", "refloods",
         "stale_rejected", "transitions", "mean_commit_s",
         "stale_nodes_end", "dsch16_retries", "dsch16_unserved"])

    for loss in loss_rates:
        # the distributed handshake under the same per-leg loss (E14 redux)
        demands = {link: 1 for link in sorted(topology.links)[::3]}
        dsch16 = DistributedScheduler(
            topology, frame.data_slots, max_cycles=64,
            loss_rate=loss, seed=seed + 1).run(demands)

        for resilient in (True, False):
            label = "resilient" if resilient else "legacy"
            rngs = RngRegistry(seed=seed).spawn(f"r{loss}/{label}")
            sim = Simulator()
            trace = Trace(capacity=200_000)
            channel = BroadcastChannel(sim, topology, frame.phy, trace)
            channel.set_control_error_model(rngs.stream("control_loss"),
                                            default_error_rate=loss)
            clocks, daemons = {}, {}
            for node in topology.nodes:
                skew = 0.0 if node == gateway else float(
                    rngs.stream(f"k{node}").uniform(
                        -ppm_ratio(drift_ppm), ppm_ratio(drift_ppm)))
                if node == victim:
                    skew = ppm_ratio(drift_ppm)  # worst admissible drift
                clocks[node] = DriftingClock(skew=skew)
                daemons[node] = SyncDaemon(node, gateway, clocks[node],
                                           SyncConfig(),
                                           rngs.stream(f"s{node}"), trace)
            rcfg = ResilienceConfig(drift_bound_ppm=drift_ppm,
                                    sync_residual_s=20 * US,
                                    reflood_interval_frames=8,
                                    mute_guard_multiple=2.0)
            health = (HealthMonitor(frame, rcfg, root=gateway, trace=trace)
                      if resilient else None)
            sinks = SinkRegistry()
            overlay = TdmaOverlay(
                sim, topology, channel, frame,
                ControlPlane(topology, gateway, frame), schedule_a,
                clocks, daemons,
                on_packet=lambda n, p: forwarder.packet_arrived(n, p,
                                                                sim.now),
                trace=trace, health=health)
            forwarder = SourceRoutedForwarder(overlay, sinks.on_delivered,
                                              trace)
            distributor = ScheduleDistributor(
                overlay, gateway, rebroadcasts=2,
                resilience=rcfg if resilient else None,
                conflicts=conflicts if resilient else None)
            overlay.attach_distributor(distributor)
            for flow in flows:
                CbrSource.for_codec(sim, flow, forwarder.originate, codec,
                                    stop_s=duration_s)
            overlay.start()

            def announce(sched, at_s):
                target = int(at_s / frame.frame_duration_s) + 15
                sim.schedule_at(at_s, lambda: distributor.announce(sched,
                                                                   target))

            announce(schedule_b, 1.0)
            announce(schedule_a, 2.0)   # mid-blackout: must not strand
            announce(schedule_b, 4.5)
            plan = FaultPlan.scripted(
                [FaultEvent(at_s=1.5, kind="control_loss", link=link,
                            value=0.999) for link in blackout_links]
                + [FaultEvent(at_s=3.5, kind="control_loss", link=link,
                              value=loss) for link in blackout_links],
                topology=topology)
            FaultInjector(plan, topology, sim=sim, channel=channel).arm()

            mixed_samples = 0
            s8_violations = 0

            def sample():
                nonlocal mixed_samples, s8_violations
                executed = Schedule(frame.data_slots)
                versions = set()
                for node in topology.nodes:
                    if channel.node_is_down(node):
                        continue
                    versions.add(distributor.applied_version[node])
                    for link, block in distributor.applied_assignments[node]:
                        if link[0] == node:
                            executed.assign(link, block)
                if len(versions) > 1:
                    mixed_samples += 1
                s8_violations += len(executed.violations(conflicts))
                if sim.now + 0.02 < duration_s:
                    sim.schedule(0.02, sample)

            sim.schedule(0.5, sample)
            with obs_api.use_registry(obs_api.MetricsRegistry()) as registry:
                sim.run(until=duration_s + 0.2)
            counters = registry.snapshot()["counters"]
            commit_lags = [distributor.commit_times[v]
                           - distributor.announce_times[v]
                           for v in distributor.commit_times
                           if v in distributor.announce_times]
            top_version = max(distributor.applied_version.values())
            stale_end = sum(
                1 for node in topology.nodes
                if not channel.node_is_down(node)
                and distributor.applied_version[node] < top_version)
            result.rows.append([
                loss, resilient, mixed_samples, s8_violations,
                counters.get("overlay.guard_violations", 0),
                counters.get("resilience.mute_events", 0),
                counters.get("resilience.dsch.commits", 0),
                counters.get("resilience.dsch.refloods", 0),
                counters.get("resilience.dsch.stale_rejected", 0),
                counters.get("resilience.dsch.transition_versions", 0),
                round(sum(commit_lags) / len(commit_lags), 3)
                if commit_lags else 0.0,
                stale_end, dsch16.retries, len(dsch16.unserved)])
    result.notes = ("mixed_samples counts 20 ms instants with >1 applied "
                    "version on air (expected >0 in BOTH arms during "
                    "floods; safe only when the union stays conflict-free); "
                    "s8_violations sums conflict-validator hits over the "
                    "executed union maps")
    return result


@_declare("E18", e18_control_loss, shard_axis="loss_rates")
def _e18_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    resilient = [r for r in rows if r["resilient"]]
    legacy = [r for r in rows if not r["resilient"]]
    _expect(bool(resilient and legacy), "both arms are present")
    for r in resilient:
        _expect(r["loss_rate"] <= 0.3, "the sweep stays at or below 30%")
        _expect(r["s8_violations"] == 0,
                "the resilient arm never executes conflicting maps")
        _expect(r["guard_violations"] == 0,
                "holdover keeps transmissions out of guard time")
        _expect(r["mute_events"] >= 1,
                "the blacked-out victim fail-safe mutes")
        _expect(r["commits"] == 6,
                "all three floods (plus transitions) commit")
        _expect(r["refloods"] > 0 and r["transitions"] > 0,
                "epoch re-floods and transition versions fire")
        _expect(0.0 < r["mean_commit_s"] < 1.0,
                "coverage-acked commit stays sub-second")
        _expect(r["stale_nodes_end"] == 0,
                "re-floods catch the victim back up")
    for r in legacy:
        _expect(r["s8_violations"] + r["guard_violations"] > 0,
                "the legacy arm desyncs under the same loss")


def _e19_workload(frame: MeshFrameConfig):
    """The mixed-class saturating workload E19 runs (3-node chain).

    Rates are expressed in data-slot units (one slot-grant per frame
    carries ``data_slot_capacity_bits``), so the load pattern is exact
    regardless of the PHY behind the frame config.  The mix is the one
    the WiMAX scheduling studies use: VoIP (UGS), bursty video above its
    reservation (rtPS), a rate-floored stream (nrtPS), and saturating
    bulk transfers (BE) -- total ask well beyond the 16-slot frame.
    """
    from repro.qos import ServiceClass, ServiceFlow, ServiceFlowSet, \
        TrafficContract

    cap = frame.data_slot_capacity_bits
    slot_rate = cap / frame.frame_duration_s

    def make(name, src, cls, min_slots, sustained_slots, latency=None,
             jitter=None, pkt=None):
        contract = TrafficContract(
            min_reserved_rate_bps=min_slots * slot_rate,
            max_sustained_rate_bps=(None if sustained_slots is None
                                    else sustained_slots * slot_rate),
            max_latency_s=latency, tolerated_jitter_s=jitter)
        return ServiceFlow(name, src, 0, cls, contract,
                           packet_bits=pkt if pkt else cap)

    return ServiceFlowSet([
        make("voip0", 1, ServiceClass.UGS, 2, 2, latency=0.05,
             jitter=0.02, pkt=cap // 2),
        make("video0", 2, ServiceClass.RTPS, 2, 4, latency=0.1),
        make("stream0", 1, ServiceClass.NRTPS, 1, 2),
        make("bulk0", 2, ServiceClass.BE, 0, 4, pkt=cap // 2),
        make("bulk1", 1, ServiceClass.BE, 0, 4),
    ])


def e19_scheduler_bakeoff(disciplines: Sequence[str] = ("strict", "wrr",
                                                        "drr", "edf"),
                          num_frames: int = 400) -> ExperimentResult:
    """Intra-node scheduler bake-off over a mixed-class saturating load.

    A 3-node chain toward the gateway carries all four 802.16 classes;
    the grant schedule reserves the guaranteed minimums and water-fills
    the leftover toward the (over-)offered rates, so every discipline
    sees the same saturated grant map and differs only in which flow
    rides each grant.  Expected dominance ordering: strict-priority and
    EDF meet the rtPS latency contract (zero violations) where WRR/DRR
    trade latency for fairness (violations > 0, higher flow-level Jain
    index, no starved BE flow); under strict-priority (and EDF) the
    multi-hop BE flow starves outright.
    """
    from repro.qos import grant_schedule_for, simulate_service_flows

    frame = default_frame_config()
    topology = chain_topology(3)
    flows = _e19_workload(frame)
    schedule, routed = grant_schedule_for(topology, flows, frame)

    result = ExperimentResult(
        "E19", "service-flow scheduler bake-off at saturating load "
        "(3-node chain, UGS+rtPS+nrtPS+BE)",
        ["discipline", "ugs_viol", "rtps_viol", "rtps_p95_ms",
         "nrtps_min_met", "be_share", "be_starved", "jain_flow",
         "max_be_age_s", "idle_grants"])
    for discipline in disciplines:
        res = simulate_service_flows(routed, schedule, frame, discipline,
                                     num_frames=num_frames)
        from repro.qos import ServiceClass
        ugs = res.stats_for(ServiceClass.UGS)
        rtps = res.stats_for(ServiceClass.RTPS)
        nrtps = res.stats_for(ServiceClass.NRTPS)
        be = res.stats_for(ServiceClass.BE)
        rtps_p95_ms = max(
            res.per_flow[f.name].p95_delay_s
            for f in routed.by_class(ServiceClass.RTPS)) * 1000.0
        be_starved = sum(
            1 for f in routed.by_class(ServiceClass.BE)
            if res.per_flow[f.name].received == 0)
        result.rows.append([
            discipline, ugs.latency_violations, rtps.latency_violations,
            round(rtps_p95_ms, 3), int(nrtps.min_rate_met),
            round(be.share, 4), be_starved,
            round(res.flow_jain_index, 4),
            round(be.max_queue_age_s, 3), res.grants_idle])
    result.notes = ("saturating ask ~2x the 16-slot frame; grants fixed "
                    "across disciplines (reservations + water-filled "
                    "leftover), only the per-grant arbitration differs")
    return result


@_declare("E19", e19_scheduler_bakeoff, shard_axis="disciplines")
def _e19_shape(result: ExperimentResult) -> None:
    rows = {r["discipline"]: r for r in _records(result)}
    _expect(set(rows) == {"strict", "wrr", "drr", "edf"},
            "all four disciplines ran")
    # reserved grants carry UGS whatever the arbitration
    for name, r in rows.items():
        _expect(r["ugs_viol"] == 0, f"{name}: UGS contract broken")
        _expect(r["nrtps_min_met"] == 1, f"{name}: nrtPS rate floor broken")
    for name in ("strict", "edf"):
        _expect(rows[name]["rtps_viol"] == 0,
                f"{name}: a deadline-aware discipline meets rtPS latency")
        _expect(rows[name]["be_starved"] == 1,
                f"{name}: a deadline-aware discipline starves the multi-hop BE flow")
    for name in ("wrr", "drr"):
        _expect(rows[name]["rtps_viol"] > 0
                and rows[name]["rtps_p95_ms"] > rows["strict"]["rtps_p95_ms"]
                and rows[name]["be_starved"] == 0,
                f"{name}: round robin trades rtPS latency for BE survival")
    _expect(rows["drr"]["be_share"] > rows["strict"]["be_share"]
            and rows["drr"]["jain_flow"] > rows["strict"]["jain_flow"]
            and rows["wrr"]["jain_flow"] > rows["edf"]["jain_flow"],
            "round robin is the fairer side of the trade")
    _expect(rows["edf"]["rtps_viol"] <= rows["strict"]["rtps_viol"],
            "EDF never violates rtPS more often than strict priority")
    # the only idle grants are pipeline fill while the first packets
    # cross hop one (400 frames is the default run)
    total = 400 * default_frame_config().data_slots
    for name, r in rows.items():
        _expect(r["idle_grants"] / total < 0.01, f"{name}: not saturating")


# ---------------------------------------------------------------------------
# E20: QoS under mobility -- validity, goodput and repair load vs node speed
# ---------------------------------------------------------------------------

def e20_mobility(speeds: Sequence[float] = (0.0, 5.0, 10.0, 20.0, 30.0),
                 num_nodes: int = 36, area_m: float = 900.0,
                 radio_range_m: float = 220.0, horizon_s: float = 30.0,
                 dt_s: float = 0.25, num_flows: int = 2,
                 seed: int = 61) -> ExperimentResult:
    """Guaranteed QoS while the mesh itself moves (S36).

    ``num_nodes`` nodes walk a seeded random waypoint over an
    ``area_m``-square field at each swept speed (every speed shares the
    same t=0 layout: starts are drawn before any leg).  A
    :class:`~repro.mobility.TopologyStream` debounces pairwise distances
    through a hysteretic disk radio model into timestamped link/node
    deltas, lowers them onto the fault vocabulary, and
    :func:`~repro.mobility.run_mobility` replays them with one
    :class:`~repro.core.repair.RepairEngine` retarget per ``dt_s``
    sample batch.  Two gateway-bound flows ride the mesh from the
    farthest union nodes -- deliberately the flakiest vantage points.
    Every speed runs on a fresh :class:`SolverEngine`; ``index_builds``
    counts the conflict indexes it built (every cache miss is one build).

    Expected shape: schedules stay S8-conflict-free and inside delay
    budgets at *every* speed (``conflict_ok``/``guarantee_ok``); the
    gateway re-selection rate climbs steeply with speed; goodput is
    ragged rather than monotone because it is dominated by how long the
    far flows' endpoints stay attached, not by repair latency; and
    ``index_builds`` grows with speed (faster motion changes the mesh
    on more ticks).
    """
    from repro.mobility import (
        RadioRangeModel,
        RandomWaypointModel,
        TopologyStream,
        run_mobility,
    )

    gateway = 0
    frame = default_frame_config()
    result = ExperimentResult(
        "E20", "QoS under mobility: validity, goodput, repair load and "
        f"gateway re-selection vs node speed ({num_nodes}-node random "
        "waypoint)",
        ["speed_mps", "batches", "events", "local", "resolve",
         "repair_frames", "reselect", "goodput", "conflict_ok",
         "guarantee_ok", "index_builds"])
    for speed in speeds:
        motion = RandomWaypointModel(num_nodes, area_m, speed, horizon_s,
                                     seed=seed)
        stream = TopologyStream(
            motion, RadioRangeModel(radio_range_m, hysteresis=0.15),
            dt=dt_s)
        world = stream.fault_plan(gateway)
        topology = world.topology
        # deterministic endpoints: the farthest union node doubles as the
        # secondary gateway candidate, the next-farthest carry the flows
        far = sorted((n for n in topology.nodes if n != gateway),
                     key=lambda n: (topology.hop_distance(gateway, n), n))
        second_gateway = far[-1]
        sources = [n for n in far if n != second_gateway][-num_flows:]
        flows = [Flow(f"mob{i}", src, gateway, rate_bps=80_000,
                      delay_budget_s=0.3)
                 for i, src in enumerate(sources)]
        run = run_mobility(stream, flows, frame, gateway=gateway,
                           gateways=(gateway, second_gateway),
                           engine=SolverEngine())
        result.rows.append([
            speed, len(run.steps), sum(s.events for s in run.steps),
            run.local, run.resolve, run.mean_repair_frames,
            run.reselections, round(run.goodput_fraction, 4),
            run.conflict_ok, run.guarantee_ok,
            run.engine_stats["index_builds"]])
    result.notes = ("goodput charges parked time and convergence windows "
                    "against a 20 ms packet cadence, so it tracks endpoint "
                    "attachment of the far flows rather than repair "
                    "latency")
    return result


@_declare("E20", e20_mobility, shard_axis="speeds")
def _e20_shape(result: ExperimentResult) -> None:
    rows = _records(result)
    _expect(any(r["speed_mps"] >= 10.0 for r in rows),
            "the sweep reaches vehicular speeds")
    for r in rows:
        speed = r["speed_mps"]
        _expect(bool(r["conflict_ok"] and r["guarantee_ok"]),
                f"schedule validity survives mobility at {speed} m/s")
        _expect(0.0 <= r["goodput"] <= 1.0, "goodput is a fraction")
        if speed == 0.0:
            _expect(r["batches"] == 0 and r["reselect"] == 0,
                    "a static field generates no topology churn")
            continue
        _expect(r["batches"] > 0 and r["events"] > 0,
                f"motion at {speed} m/s churns the topology")
        _expect(r["local"] + r["resolve"] == r["batches"],
                "every churn batch is answered by a repair strategy")
    reselect = {r["speed_mps"]: r["reselect"] for r in rows}
    _expect(reselect[max(reselect)] > reselect[min(reselect)],
            "gateway re-selection grows with node speed")


# ---------------------------------------------------------------------------
# E21: city-scale minimum-slot search
# ---------------------------------------------------------------------------

def _e21_instance(num_nodes: int, num_flows: int, seed: int,
                  engine: SolverEngine):
    """One city-scale random-disk mesh with local unit-slot flows.

    Nodes go down at ~7 neighbours mean degree; flows run between
    random pairs at most three hops apart (city-scale traffic is
    local -- metro-wide pairs would pile demand onto a few transit
    links and the clique bound, not the solver, would dominate).  The
    frame is sized from the measured clique lower bound (three times
    plus headroom, 525 us slots as in E9) and every flow's rate is set
    to exactly one slot per frame per link, with a lax
    ``(route + 3) x frame`` delay budget.
    """
    radio_range = 100.0
    area = radio_range * math.sqrt(num_nodes * math.pi / 7.0)
    topology = random_disk_topology(num_nodes, radio_range=radio_range,
                                    area=area, seed=seed + num_nodes)
    nodes = topology.nodes
    rng = RngRegistry(seed=seed).stream(f"e21/pairs/{num_nodes}")
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    tries = 0
    while len(pairs) < num_flows and tries < num_flows * 50:
        tries += 1
        src = nodes[int(rng.integers(len(nodes)))]
        reach, _ = bfs_levels(topology.rows, [src], cutoff=3)
        near = sorted(reach.keys() - {src})
        if not near:
            continue
        dst = near[int(rng.integers(len(near)))]
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        pairs.append((src, dst))

    # Pass 1: unit-rate routing fixes the per-link slot counts (one slot
    # per flow per link) and each route's length.
    provisional = route_all(topology, FlowSet(
        [Flow(f"c{i}", src=src, dst=dst, rate_bps=1)
         for i, (src, dst) in enumerate(pairs)]))
    counts: dict = {}
    for flow in provisional:
        for link in flow.route:
            counts[link] = counts.get(link, 0) + 1
    index = engine.conflict_index(topology, links=sorted(counts))
    lower = demand_lower_bound(counts)

    # Pass 2: size the frame from the clique bound, then set rates so
    # each flow needs exactly the one slot per frame pass 1 counted.
    slot_s = 525 * US
    data_slots = 3 * lower + 16
    phy = default_frame_config().phy
    frame = MeshFrameConfig(
        frame_duration_s=4 * 400 * US + data_slots * slot_s,
        control_slots=4, control_slot_s=400 * US,
        data_slots=data_slots, guard_s=60 * US, phy=phy)
    rate = int(0.9 * frame.data_slot_capacity_bits
               / frame.frame_duration_s)
    flows = route_all(topology, FlowSet(
        [Flow(f"c{i}", src=flow.src, dst=flow.dst, rate_bps=rate,
              delay_budget_s=(len(flow.route) + 3)
              * frame.frame_duration_s)
         for i, flow in enumerate(provisional)]))
    demands = flows.link_demands(frame.frame_duration_s,
                                 frame.data_slot_capacity_bits)
    return topology, flows, frame, index, demands, lower


def e21_zoned_scaling(sizes: Sequence[tuple[int, int]] = ((24, 16),
                                                          (60, 45),
                                                          (120, 90),
                                                          (240, 180),
                                                          (480, 400),
                                                          (1000, 1500)),
                      seed: int = 29) -> ExperimentResult:
    """Minimum-slot searches on city-scale meshes, against the raw greedy arm.

    Each mesh is solved by :func:`~repro.core.minslots.minimum_slots`
    under the default ``"auto"`` policy.  Expected shape: every row is
    ``bounds-closed`` -- a packing certificate meets the greedy-clique
    ``floor``, so ``slots`` is the proven optimum with no ILP -- up to
    thousands of demanded links.  The raw
    :func:`~repro.core.greedy.greedy_minimum_slots` arm (no bounds) is
    measured against that optimum.  Every emitted schedule is validated
    conflict-free against the full conflict graph (S8) and every flow's
    deterministic delay bound is checked against its budget (S30).

    The two wall-clock columns come last so the deterministic prefix of
    each row is directly comparable between serial and sharded runs (the
    E21 CI smoke diffs exactly that prefix).
    """
    import time as time_mod

    result = ExperimentResult(
        "E21", "city-scale minimum-slot search (random disk, local flows)",
        ["nodes", "flows", "links", "conflicts", "lower", "floor",
         "slots", "status", "greedy_slots", "greedy_gap_pct", "s8_ok",
         "s30_ok", "solve_s", "greedy_s"])
    for num_nodes, num_flows in sizes:
        engine = SolverEngine()
        topology, flows, frame, index, demands, lower = _e21_instance(
            num_nodes, num_flows, seed, engine)
        constraints = delay_constraints_for(
            flows, frame.frame_duration_s / frame.data_slots)
        floor = max(demand_lower_bound(demands),
                    _greedy_clique_demand(index, demands, frame.data_slots))

        started = time_mod.perf_counter()
        outcome = minimum_slots(index, demands, frame.data_slots,
                                constraints, engine=engine)
        solve_s = time_mod.perf_counter() - started
        if not outcome.feasible:
            status = "infeasible"
        elif outcome.ilp.solver_status == BOUNDS_CLOSED:
            status = BOUNDS_CLOSED
        else:
            status = "gap"
        started = time_mod.perf_counter()
        greedy = greedy_minimum_slots(index, demands, frame.data_slots,
                                      constraints, engine=engine)
        greedy_s = time_mod.perf_counter() - started

        # S8 + S30 on every schedule either search emitted.
        s8_ok = True
        s30_ok = True
        for arm in (outcome, greedy):
            if arm.schedule is None:
                continue
            s8_ok &= arm.schedule.violations(index) == []
            for flow in flows:
                report = check_guarantees(arm.schedule, flow, frame,
                                          G729.packet_bits)
                s30_ok &= report.stable
                s30_ok &= report.meets_budget(flow.delay_budget_s)

        greedy_gap = None
        if greedy.slots is not None and outcome.slots:
            greedy_gap = round(
                100.0 * (greedy.slots - outcome.slots) / outcome.slots, 1)
        result.rows.append([
            num_nodes, num_flows, len(demands), index.num_conflicts, lower,
            floor, outcome.slots, status, greedy.slots, greedy_gap, s8_ok,
            s30_ok, round(solve_s, 3), round(greedy_s, 3)])
    result.notes = ("slots is the default-policy search's K (bounds-closed: "
                    "proven optimal at the greedy-clique floor); "
                    "greedy_gap_pct compares the raw greedy arm with it; "
                    "wall-clock columns are last so serial and sharded "
                    "tables agree on everything before them")
    return result


@_declare("E21", e21_zoned_scaling, shard_axis="sizes",
          reduced={"sizes": ((24, 16), (60, 45))},
          bench={"sizes": ((24, 16), (80, 60), (240, 180))},
          wall_columns=2)
def _e21_shape(result: ExperimentResult) -> None:
    for r in _records(result):
        mesh = f"{r['nodes']} nodes"
        _expect(r["status"] == BOUNDS_CLOSED and r["slots"] == r["floor"],
                f"{mesh}: the search closes at its floor with no ILP")
        _expect(r["greedy_slots"] is not None,
                f"{mesh}: the greedy arm produces a schedule")
        _expect(r["greedy_slots"] >= r["slots"],
                f"{mesh}: greedy never beats K")
        _expect(r["s8_ok"] is True, f"{mesh}: the schedule is S8-clean")
        _expect(r["s30_ok"] is True, f"{mesh}: the schedule meets S30")


# ---------------------------------------------------------------------------
# E23: interference backends -- protocol model vs SINR ground truth
# ---------------------------------------------------------------------------

def e23_interference_backends(
        cs_multipliers: Sequence[float] = (1.0, 1.5, 2.0, 2.5),
        num_nodes: int = 8, spacing_m: float = 90.0,
        num_calls: int = 4, duration_s: float = 2.0,
        seed: int = 37, codec: VoipCodec = G729) -> ExperimentResult:
    """Protocol-model abstraction vs SINR physical ground truth (S39).

    One chain mesh, node spacing chosen so SINR-audible interference
    reaches ~3 hops while the 802.16-mandated 2-hop protocol model only
    sees 2.  Per carrier-sense range multiplier, the row reports:

    - conflict-graph size under each backend and the pairs the protocol
      abstraction leaves *uncovered* against the SINR truth
      (:func:`repro.phy.interference.uncovered_interference` with
      ``truth=``) -- nonzero here is the headline: a 2-hop-clean
      schedule can still collide in SINR terms;
    - hidden-node pairs (conflicting non-adjacent links whose
      transmitters cannot carrier-sense each other) -- these shrink as
      the cs range grows and hit zero once cs covers the whole audible
      range;
    - minimum guaranteed slots under each backend (the slot price of
      scheduling against the wider physical graph), S8 checks both ways
      (the protocol schedule's violation count against the SINR graph,
      and the SINR schedule's cleanliness against its own graph), and
      the per-link adaptive-MCS mix;
    - the DCF baseline run twice, on the graph-perfect channel and on
      the physically-coupled one (carrier sense past radio neighbours +
      hidden-node jamming) -- the jam count is the hidden-node tax the
      protocol abstraction hides, and it shrinks as cs deferral widens.

    Expected shape: uncovered pairs are constant (the SINR audible range
    does not depend on cs), hidden pairs and DCF jams fall
    monotonically with the multiplier, and the SINR backend pays a few
    extra slots for physical-truth safety.
    """
    from repro.phy.interference import uncovered_interference
    from repro.phy.models import SinrModel

    topology = chain_topology(num_nodes, spacing=spacing_m)
    frame = default_frame_config()
    slot_s = frame.frame_duration_s / frame.data_slots
    engine = SolverEngine()
    result = ExperimentResult(
        "E23", "interference backends: 2-hop protocol model vs SINR "
        f"physical truth (chain{num_nodes} @ {spacing_m:g} m)",
        ["cs_mult", "cs_range_m", "proto_edges", "sinr_edges",
         "uncovered", "hidden", "proto_slots", "sinr_slots",
         "proto_viol_vs_sinr", "sinr_s8_ok", "mcs_mix",
         "dcf_collisions", "dcf_phys_collisions", "dcf_jams"])
    for mult in cs_multipliers:
        sinr = SinrModel(cs_multiplier=mult)
        rngs = RngRegistry(seed=seed)
        flows = make_voip_flows(topology, num_calls, rngs, codec=codec,
                                gateway=0, delay_budget_s=0.1, min_hops=2)
        demands = flows.link_demands(frame.frame_duration_s,
                                     frame.data_slot_capacity_bits)
        links = sorted(demands)
        proto_index = engine.conflict_index(topology, links=links)
        sinr_index = engine.conflict_index(topology, interference=sinr,
                                           links=links)
        uncovered = uncovered_interference(topology, truth=sinr)
        hidden = sinr.hidden_node_pairs(topology)
        constraints = delay_constraints_for(flows, slot_s)
        proto = minimum_slots(proto_index, demands, frame.data_slots,
                              delay_constraints=constraints, engine=engine)
        phys = minimum_slots(sinr_index, demands, frame.data_slots,
                             delay_constraints=constraints, engine=engine)
        # S8 both ways: the protocol schedule audited against the SINR
        # truth (nonzero = the abstraction's blind spot, scheduled), and
        # the SINR schedule against its own relation (must be clean).
        proto_viol = (len(proto.schedule.violations(sinr_index))
                      if proto.schedule is not None else None)
        sinr_ok = (phys.schedule is not None
                   and phys.schedule.violations(sinr_index) == [])
        rates = sinr.link_rates(topology, links=links)
        mix: dict[str, int] = {}
        for entry in rates.values():
            mix[entry.name] = mix.get(entry.name, 0) + 1
        mcs_mix = "/".join(f"{name}:{count}"
                           for name, count in sorted(mix.items()))
        dcf_plain = run_dcf_scenario(topology, flows, duration_s,
                                     rngs.spawn("dcf"), codec=codec)
        dcf_phys = run_dcf_scenario(topology, flows, duration_s,
                                    rngs.spawn("dcf-phys"), codec=codec,
                                    interference=sinr)
        result.rows.append([
            mult, round(sinr.carrier_sense_range_m(), 1),
            proto_index.num_conflicts, sinr_index.num_conflicts,
            len(uncovered), len(hidden),
            proto.slots, phys.slots, proto_viol, sinr_ok, mcs_mix,
            dcf_plain.extras["collisions"], dcf_phys.extras["collisions"],
            dcf_phys.extras["jams"]])
    result.notes = ("uncovered pairs compare the 2-hop graph with the "
                    "SINR truth over the full link set and do not depend "
                    "on the cs multiplier; hidden pairs fall as carrier "
                    "sense widens; DCF jam damage only drops once the cs "
                    "range passes the audible (jamming) range, because "
                    "jam energy itself already busies the victim's "
                    "medium; both DCF arms replay the same seeded "
                    "workload")
    return result


_E23_SWEEP = {"cs_multipliers": (1.0, 2.5), "duration_s": 1.0}


@_declare("E23", e23_interference_backends, shard_axis="cs_multipliers",
          reduced=_E23_SWEEP, bench=_E23_SWEEP)
def _e23_shape(result: ExperimentResult) -> None:
    _expect(len(result.rows) == 2,
            "one narrow and one wide carrier-sense range")
    narrow, wide = rows = _records(result)
    for r in rows:
        _expect(r["uncovered"] > 0,
                "the SINR truth exposes pairs the 2-hop model misses")
        _expect(r["sinr_s8_ok"] is True,
                "the SINR-backend schedule is S8-clean against its graph")
        _expect(r["proto_viol_vs_sinr"] > 0,
                "the protocol schedule collides under the SINR truth")
        _expect(r["sinr_slots"] >= r["proto_slots"],
                "the denser SINR graph never needs fewer slots")
    _expect(narrow["hidden"] > 0,
            "a narrow carrier-sense range leaves hidden-node pairs")
    _expect(narrow["hidden"] > wide["hidden"],
            "widening carrier sense shrinks the hidden-node set")

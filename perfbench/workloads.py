"""The benchmark workloads.

Each workload builds its inputs from the run seed in ``setup`` and lists
one *pass* of work in ``pass_items``; ``run_item`` runs one item.  The
harness repeats passes until the measuring time is spent.
Every timed call goes through :class:`Ops`, which records host time per
operation, and every output is checked as it is produced: a failed check
is counted, never raised.

Only public entry points are driven, each with library defaults:
``AdmissionController``, ``schedule_for_flows``,
``run_tdma_scenario``/``run_dcf_scenario`` and ``run_mobility``.
"""

from __future__ import annotations

import gc
import random
import time
import traceback
from dataclasses import dataclass, field

from repro import (
    G729,
    AdmissionController,
    Flow,
    grid_topology,
)
from repro.analysis.scenarios import (
    make_voip_flows,
    run_dcf_scenario,
    run_tdma_scenario,
    schedule_for_flows,
)
from repro.core.delay import path_delay_slots
from repro.mesh16.frame import default_frame_config
from repro.mobility import (
    RadioRangeModel,
    RandomWaypointModel,
    TopologyStream,
    run_mobility,
)
from repro.sim.random import RngRegistry
from speed import SpeedClock


class Ops:
    """Times calls into the program and collects operation samples.

    Before each call the speed clock may take a reading and garbage left
    by the previous call is collected, both outside the timed region, so
    neither is charged to the call.  With a tracer, each call opens a span
    and a counter phase named after its label.  An *operation* is the
    workload's unit of work (one admission decision, one emulated second,
    ...); :meth:`sample` records one operation's host time, and
    :meth:`finish` normalises every sample to nominal machine speed (see
    :mod:`speed`).
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.clock = SpeedClock()
        self._raw: list[tuple[float, float, float]] = []
        self.samples_ms: list[float] = []
        self.units = 0.0
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        #: label -> [raw host seconds, calls]
        self.by_label: dict[str, list[float]] = {}

    def time(self, label: str, function, *args, **kwargs):
        """Call ``function``; returns ``(result, elapsed_s)``."""
        self.clock.maybe_calibrate()
        gc.collect()
        if self.tracer is not None:
            with self.tracer.phase(label), self.tracer.span(f"op.{label}"):
                started = time.perf_counter()
                result = function(*args, **kwargs)
                elapsed = time.perf_counter() - started
        else:
            started = time.perf_counter()
            result = function(*args, **kwargs)
            elapsed = time.perf_counter() - started
        spent = self.by_label.setdefault(label, [0.0, 0])
        spent[0] += elapsed
        spent[1] += 1
        return result, elapsed

    def sample(self, elapsed_s: float, units: float = 1.0) -> None:
        """Record ``units`` operations that took ``elapsed_s`` in all."""
        middle = time.perf_counter() - elapsed_s / 2
        self._raw.append((middle, elapsed_s, units))

    def finish(self) -> None:
        """Normalise the samples recorded so far; call once, at the end."""
        self.clock.calibrate()
        for middle, elapsed, units in self._raw:
            nominal = elapsed * self.clock.factor(middle)
            self.samples_ms.append(nominal * 1e3 / units)
            self.units += units
            self.busy_s += nominal
            self.raw_busy_s += elapsed

    def check(self, ok_count: int, total: int) -> None:
        self.attempted += total
        self.failed += total - ok_count


@dataclass
class PassOutputs:
    """Deterministic outputs of one pass, reported and compared exactly."""

    values: dict[str, float] = field(default_factory=dict)
    #: per-operation latency split for the admission layer
    latency_ms: dict[str, list[float]] = field(default_factory=dict)


def _shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# voip-admission
# ---------------------------------------------------------------------------

class VoipAdmission:
    """G.729 gateway calls offered past capacity to ``try_admit``.

    One instance is a call sequence on a 2x4 grid: ``OFFERED`` calls are
    offered one at a time, every other admitted call is then released, and
    the calls rejected the first time are offered again.  The pool holds
    instances whose slowest decision stays far below the controller's
    per-probe wall-clock limit, so no verdict depends on the clock; a pass
    plays the whole pool in an order drawn from the seed.
    """

    name = "voip-admission"
    repeats_items = True
    POOL = (8, 11, 12, 13, 14, 19)
    OFFERED = 12
    DELAY_BUDGET_S = 0.05
    setups = 15

    def setup(self, seed: int):
        topology = grid_topology(2, 4)
        frame = default_frame_config()
        instances = []
        for instance in self.POOL:
            rng = RngRegistry(seed=instance).stream("calls")
            calls = []
            for index in range(self.OFFERED):
                other = int(rng.choice([n for n in topology.nodes
                                        if n != 0]))
                src, dst = (0, other) if index % 2 else (other, 0)
                calls.append(Flow(f"call{index}", src, dst,
                                  rate_bps=G729.wire_rate_bps,
                                  delay_budget_s=self.DELAY_BUDGET_S))
            instances.append((instance, calls))
        return topology, frame, instances

    def pass_items(self, state, seed: int, index: int) -> list:
        return _shuffled(state[2], seed)

    def run_item(self, state, item, ops: Ops, out: PassOutputs) -> None:
        topology, frame, _ = state
        instance, calls = item
        controller = AdmissionController(
            topology, frame_slots=frame.data_slots,
            frame_duration_s=frame.frame_duration_s,
            slot_capacity_bits=frame.data_slot_capacity_bits)
        limit = getattr(controller, "time_limit_per_probe_s", None)
        admitted, rejected = [], []

        def offer(flow):
            try:
                decision, elapsed = ops.time("admission.try_admit",
                                             controller.try_admit, flow)
            except Exception:  # a decision that raises is a failure
                traceback.print_exc()
                ops.check(0, 1)
                return None
            ops.sample(elapsed)
            kind = "accept" if decision.admitted else "reject"
            out.latency_ms.setdefault(kind, []).append(elapsed * 1e3)
            ok = elapsed < limit if limit else True
            if decision.admitted:
                ok &= self._schedule_ok(controller)
            ops.check(int(ok), 1)
            return decision

        for flow in calls:
            decision = offer(flow)
            if decision is not None:
                (admitted if decision.admitted else rejected).append(
                    decision.flow.name)
        for name in admitted[::2]:
            try:
                _, elapsed = ops.time("admission.release",
                                      controller.release, name)
            except Exception:  # a decision that raises is a failure
                traceback.print_exc()
                ops.check(0, 1)
                continue
            ops.sample(elapsed)
            out.latency_ms.setdefault("release", []).append(elapsed * 1e3)
            ops.check(int(self._schedule_ok(controller)), 1)
        by_name = {flow.name: flow for flow in calls}
        for name in rejected:
            offer(by_name[name])
        out.values[f"calls_admitted.{instance}"] = (
            controller.admitted_count())

    @staticmethod
    def _schedule_ok(controller) -> bool:
        """S8-valid and every admitted call within its delay budget."""
        schedule = controller.schedule
        if controller.admitted_count() == 0:
            return schedule is None
        if schedule is None or schedule.violations(controller.conflicts):
            return False
        slot_s = controller.slot_duration_s
        return all(path_delay_slots(schedule, flow.route)
                   <= int(flow.delay_budget_s / slot_s)
                   for flow in controller.admitted)


# ---------------------------------------------------------------------------
# voip-emulation
# ---------------------------------------------------------------------------

class VoipEmulation:
    """8 G.729 calls on a 3x3 grid over the TDMA emulation and over DCF.

    The calls are fixed (seed 13, as in E6); set-up builds their
    delay-aware ILP schedule (min-max delay, as in E6).  One item runs the
    same calls for ``SIM_S`` simulated second(s) over each MAC; the seed
    drives clock skews, traffic phases and DCF backoffs.  The operation is
    one emulated second of both stacks.
    """

    name = "voip-emulation"
    repeats_items = False
    CALLS = 8
    CALLS_SEED = 13
    SIM_S = 1.0
    ITEMS_PER_PASS = 2
    DELAY_BUDGET_S = 0.1
    setups = 9

    def setup(self, seed: int):
        topology = grid_topology(3, 3)
        frame = default_frame_config()
        flows = make_voip_flows(topology, self.CALLS,
                                RngRegistry(seed=self.CALLS_SEED),
                                codec=G729, gateway=0,
                                delay_budget_s=self.DELAY_BUDGET_S)
        schedule = schedule_for_flows(topology, flows, frame, method="ilp")
        return topology, frame, flows, schedule

    def pass_items(self, state, seed: int, index: int) -> list:
        base = seed * 1000 + index * self.ITEMS_PER_PASS
        return list(range(base, base + self.ITEMS_PER_PASS))

    def run_item(self, state, item, ops: Ops, out: PassOutputs) -> None:
        topology, frame, flows, schedule = state
        rngs = RngRegistry(seed=item)
        tdma, tdma_s = ops.time("tdma", run_tdma_scenario, topology, flows,
                                frame, schedule, self.SIM_S,
                                rngs.spawn("tdma"), codec=G729)
        dcf, dcf_s = ops.time("dcf", run_dcf_scenario, topology, flows,
                              self.SIM_S, rngs.spawn("dcf"), codec=G729)
        ops.sample(tdma_s + dcf_s, units=self.SIM_S)
        sent = late = lost = 0
        for flow in flows:
            qos = tdma.qos[flow.name]
            sent += qos.sent
            lost += qos.sent - qos.received
            if qos.has_samples and qos.max_delay_s > flow.delay_budget_s:
                late += qos.received
        ops.check(sent - lost - late, sent)

        values = out.values

        def add(key: str, amount: float) -> None:
            values[key] = values.get(key, 0) + amount

        add("sim_s", self.SIM_S)
        for arm, result in (("tdma", tdma), ("dcf", dcf)):
            add(f"{arm}.sent", sum(q.sent for q in result.qos.values()))
            add(f"{arm}.delivered",
                sum(q.received for q in result.qos.values()))
        for key in ("collisions", "mac_drops", "queue_drops"):
            add(f"dcf.{key}", dcf.extras[key])
        add("tdma.slot_collisions", tdma.extras["slot_collisions"])
        p95 = max(q.p95_delay_s for q in tdma.qos.values()) * 1e3
        values["tdma_p95_delay_ms"] = max(
            values.get("tdma_p95_delay_ms", 0.0), p95)


# ---------------------------------------------------------------------------
# mesh-churn
# ---------------------------------------------------------------------------

class MeshChurn:
    """E20-style motion replay through ``run_mobility``.

    36 nodes walk a random waypoint at 10 m/s over E20's 900 m field (220
    m radio range, 0.25 s ticks); four gateway-bound flows start from the
    farthest union nodes and the farthest node doubles as a second
    gateway.  Each pool entry is one motion seed replayed over
    ``HORIZON_S`` seconds (14-26 repair batches), chosen for near-equal
    replay cost; a pass replays the pool in an order drawn from the seed.
    The operation is one second of motion replayed.
    """

    name = "mesh-churn"
    repeats_items = True
    POOL = (2, 5, 7, 10, 15, 19, 22, 28)
    NODES = 36
    AREA_M = 900.0
    SPEED_MPS = 10.0
    RANGE_M = 220.0
    HORIZON_S = 10.0
    DT_S = 0.25
    FLOWS = 4
    setups = 15

    def setup(self, seed: int):
        instances = []
        for motion_seed in self.POOL:
            motion = RandomWaypointModel(self.NODES, self.AREA_M,
                                         self.SPEED_MPS, self.HORIZON_S,
                                         seed=motion_seed)
            stream = TopologyStream(
                motion, RadioRangeModel(self.RANGE_M, hysteresis=0.15),
                dt=self.DT_S)
            topology = stream.fault_plan(0).topology
            far = sorted((n for n in topology.nodes if n != 0),
                         key=lambda n: (topology.hop_distance(0, n), n))
            second_gateway = far[-1]
            sources = [n for n in far if n != second_gateway][-self.FLOWS:]
            flows = [Flow(f"mob{i}", src, 0, rate_bps=80_000,
                          delay_budget_s=0.3)
                     for i, src in enumerate(sources)]
            instances.append((motion_seed, stream, flows, second_gateway))
        return instances

    def pass_items(self, state, seed: int, index: int) -> list:
        return _shuffled(state, seed)

    def run_item(self, state, item, ops: Ops, out: PassOutputs) -> None:
        motion_seed, stream, flows, second_gateway = item
        result, elapsed = ops.time("mobility", run_mobility, stream, flows,
                                   gateways=(0, second_gateway))
        ops.sample(elapsed, units=self.HORIZON_S)
        ok = sum(step.conflict_ok and step.guarantee_ok
                 for step in result.steps)
        ops.check(ok, len(result.steps))
        out.values[f"goodput.{motion_seed}"] = result.goodput_fraction
        out.values[f"batches.{motion_seed}"] = len(result.steps)


WORKLOADS = {w.name: w for w in (VoipAdmission(), VoipEmulation(),
                                 MeshChurn())}

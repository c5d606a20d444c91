"""Benchmark of the mesh scheduling and emulation stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload voip-admission --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with instrumentation off;
``--trace 1`` runs one pass untraced and the same pass traced, and
reports the per-layer metrics (see README.md).  ``--workload
all`` runs every workload in turn.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    print("env " + json.dumps(environment(), sort_keys=True))
    warm_up()
    all_correct = True
    for name in names:
        workload = WORKLOADS[name]
        if args.trace:
            result = run_traced(workload, args.seed)
        else:
            result = run_untraced(workload, args.seed, args.seconds)
        all_correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct or len(names) == 1 else 1


# -- environment and warm-up --------------------------------------------------

def environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__, "git_sha": git_sha()}


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def warm_up() -> None:
    """Pay first-use costs (HiGHS load, lazy imports) before any timing."""
    from repro import Flow, Scenario, chain_topology
    from repro.analysis.scenarios import run_dcf_scenario
    from repro.mobility import (RadioRangeModel, RandomWaypointModel,
                                TopologyStream, run_mobility)

    scenario = Scenario(chain_topology(4), [
        Flow("warm", src=0, dst=3, rate_bps=8000, delay_budget_s=0.1)])
    scenario.route().schedule()
    scenario.simulate(0.3, seed=0)
    run_dcf_scenario(scenario.topology, scenario.flows, 0.3, seed=0)
    stream = TopologyStream(RandomWaypointModel(8, 200.0, 5.0, 1.0, seed=0),
                            RadioRangeModel(120.0), dt=0.25)
    run_mobility(stream, [])


# -- runs ---------------------------------------------------------------------

def timed_setups(workload, seed: int):
    """Set the workload up ``workload.setups`` times.

    Returns the median set-up time in nominal seconds, the median raw
    time, and the last state.
    """
    clock = SpeedClock()
    readings = []
    state = None
    for _ in range(workload.setups):
        state = None
        clock.calibrate()
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(seed)
        ended = time.perf_counter()
        readings.append(((started + ended) / 2, ended - started))
    clock.calibrate()
    nominal = [elapsed * clock.factor(middle) for middle, elapsed in readings]
    raw = [elapsed for _, elapsed in readings]
    return statistics.median(nominal), statistics.median(raw), state


def run_pass(workload, state, seed: int, index: int, ops):
    from workloads import PassOutputs

    out = PassOutputs()
    for item in workload.pass_items(state, seed, index):
        workload.run_item(state, item, ops, out)
    return out


def run_untraced(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics: whole passes until ``seconds`` have elapsed."""
    from workloads import Ops

    setup_s, raw_setup_s, state = timed_setups(workload, seed)
    gc.collect()
    gc.freeze()
    ops = Ops()
    outputs = []
    started = time.perf_counter()
    while not outputs or time.perf_counter() - started < seconds:
        outputs.append(run_pass(workload, state, seed, len(outputs), ops))
    wall_s = time.perf_counter() - started
    ops.finish()
    gc.unfreeze()

    repeat_ok = (not workload.repeats_items
                 or all(o.values == outputs[0].values for o in outputs))
    samples = ops.samples_ms
    p90 = (statistics.quantiles(samples, n=10, method="inclusive")[-1]
           if len(samples) > 1 else samples[0])
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(samples),
        "op_p90_ms": p90,
        "ops_per_s": ops.units / ops.busy_s,
    }
    units = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "ops_per_s": "1/s"}
    print(f"{workload.name}: {len(outputs)} pass(es), {len(samples)} "
          f"samples, {wall_s:.2f} s measured; outputs repeat: {repeat_ok}")
    print(f"  raw (not speed-normalised): setup {raw_setup_s:.4f} s, "
          f"{ops.units / ops.raw_busy_s:.4f} ops/s; speed factor "
          f"{ops.clock.median_factor():.3f}")
    for label, (spent, calls) in sorted(ops.by_label.items()):
        print(f"  {label}: {calls} calls, {spent:.3f} s raw")
    print("  outputs " + json.dumps(outputs[0].values, sort_keys=True))
    return {
        "correct": ops.failed == 0 and repeat_ok,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_traced(workload, seed: int) -> dict:
    """Per-layer metrics: one pass untraced, then the same pass traced.

    The first item is then traced once more on its own: its logical
    counters must repeat exactly, and the traced pass must reproduce the
    untraced pass's deterministic outputs.
    """
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import Ops, PassOutputs

    _, _, state = timed_setups(workload, seed)
    gc.collect()
    gc.freeze()
    plain = Ops()
    plain_out = run_pass(workload, state, seed, 0, plain)
    plain.finish()

    tracer = Tracer()
    ops = Ops(tracer)
    out = PassOutputs()
    first, *rest = workload.pass_items(state, seed, 0)
    with tracer:
        workload.run_item(state, first, ops, out)
        first_counters = tracer.logical_counters()
        for item in rest:
            workload.run_item(state, item, ops, out)
    ops.finish()
    again = Tracer()
    check = Ops(again)
    with again:
        workload.run_item(state, first, check, PassOutputs())
    gc.unfreeze()

    repeat_ok = (again.logical_counters() == first_counters
                 and out.values == plain_out.values)
    timeouts = tracer.counter("core.minslots.probe_timeouts")
    clock_ok = workload.name != "voip-admission" or timeouts == 0
    print(f"{workload.name} traced: untraced {plain.busy_s:.3f} s, traced "
          f"{ops.busy_s:.3f} s (nominal); counters and outputs repeat: "
          f"{repeat_ok}; probe timeouts: {timeouts}")
    print("  counters " + json.dumps(tracer.logical_counters(),
                                     sort_keys=True))
    failed = plain.failed + ops.failed + check.failed
    return {
        "correct": failed == 0 and repeat_ok and clock_ok,
        "attempted": plain.attempted + ops.attempted + check.attempted,
        "failed": failed,
        "metrics": layer_metrics(tracer, ops, out, plain),
    }


if __name__ == "__main__":
    sys.exit(main())

"""Observability through the execution runtime: sidecars, merge, CLI flags."""

import json

from repro import obs
from repro.runtime.cache import ResultCache
from repro.runtime.runner import run_experiments
from repro.runtime.tasks import make_task

EXPERIMENT = "E11"  # small: six shards of min-slot searches
#: Small and still reaches the ILP: one of its searches leaves a gap
#: between the bounds (every E11 search closes with no ILP).
ILP_EXPERIMENT = "E16"


def _core_counters(registry):
    return {name: value
            for name, value in registry.snapshot()["counters"].items()
            if not name.startswith("runtime.")}


def _run(tmp_path, label, jobs=1, use_cache=True, experiment=EXPERIMENT):
    registry = obs.MetricsRegistry()
    outcomes = run_experiments([experiment], jobs=jobs,
                               use_cache=use_cache,
                               cache_dir=str(tmp_path / label),
                               metrics=registry)
    assert outcomes[0].ok
    return registry, outcomes


def test_metrics_collection_produces_solver_counters(tmp_path):
    registry, _ = _run(tmp_path, "a", experiment=ILP_EXPERIMENT)
    counters = registry.snapshot()["counters"]
    assert counters["core.ilp.solves"] > 0
    assert counters["core.minslots.searches"] > 0
    assert counters["core.minslots.bounds_closed"] > 0
    assert counters["runtime.tasks.ok"] == 7
    timings = registry.snapshot(timings=True)["timings"]
    assert timings["runtime.task"]["count"] == 7


def test_merged_metrics_identical_serial_vs_parallel(tmp_path):
    serial, _ = _run(tmp_path, "serial", jobs=1, use_cache=False)
    parallel, _ = _run(tmp_path, "parallel", jobs=3, use_cache=False)
    assert _core_counters(serial) == _core_counters(parallel)
    assert serial.snapshot()["histograms"] == parallel.snapshot()["histograms"]


def test_sidecars_written_next_to_cached_results(tmp_path):
    _run(tmp_path, "c")
    results_dir = tmp_path / "c" / "results"
    sidecars = sorted(results_dir.glob("*.metrics.json"))
    assert len(sidecars) == 6
    snap = json.loads(sidecars[0].read_text())
    assert set(snap) <= {"counters", "gauges", "histograms"}
    assert "timings" not in snap  # wall-clock never reaches disk


def test_cached_rerun_reloads_sidecars(tmp_path):
    cold, _ = _run(tmp_path, "d")
    warm, outcomes = _run(tmp_path, "d")
    assert outcomes[0].cached
    assert _core_counters(warm) == _core_counters(cold)
    warm_counters = warm.snapshot()["counters"]
    assert warm_counters["runtime.tasks.cached"] == 6
    assert "runtime.tasks.ok" not in warm_counters


def test_sidecars_are_deterministic_across_runs(tmp_path):
    _run(tmp_path, "e1", use_cache=True)
    _run(tmp_path, "e2", use_cache=True)
    left = sorted((tmp_path / "e1" / "results").glob("*.metrics.json"))
    right = sorted((tmp_path / "e2" / "results").glob("*.metrics.json"))
    assert [p.name for p in left] == [p.name for p in right]
    for a, b in zip(left, right):
        assert a.read_bytes() == b.read_bytes()


def test_no_metrics_registry_means_no_sidecars(tmp_path):
    run_experiments([EXPERIMENT], jobs=1, cache_dir=str(tmp_path / "f"))
    assert not list((tmp_path / "f" / "results").glob("*.metrics.json"))


def test_cache_metrics_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path / "g"))
    task = make_task("tests.runtime_helpers:add",
                     params={"a": 1, "b": 2})
    cache.put(task, 3)
    key = cache.put_metrics(task, {"counters": {"x": 1},
                                   "timings": {"t": {"count": 1}}})
    sidecar = tmp_path / "g" / "results" / f"{key}.metrics.json"
    stored = json.loads(sidecar.read_text())
    assert stored == {"counters": {"x": 1}}  # timings stripped
    assert cache.get_metrics(task) == {"counters": {"x": 1}}
    assert cache.get(task).value == 3


def test_trace_collects_spans_in_serial_mode(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    registry = obs.MetricsRegistry()
    writer = obs.TraceWriter(str(trace_path))
    run_experiments([ILP_EXPERIMENT], jobs=1, use_cache=False,
                    cache_dir=str(tmp_path / "i"),
                    metrics=registry, trace=writer)
    writer.close()
    spans = obs.read_trace(str(trace_path))
    assert spans
    assert {"core.minslots.search", "core.ilp.solve"} <= {
        s["name"] for s in spans}

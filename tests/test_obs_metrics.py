"""Unit tests for repro.obs: registry semantics and determinism."""

import json

import pytest

from repro import obs
from repro.net.flows import Flow
from repro.net.topology import chain_topology


@pytest.fixture
def registry():
    reg = obs.MetricsRegistry()
    previous = obs.set_registry(reg)
    yield reg
    obs.set_registry(previous)


# -- instruments ----------------------------------------------------------

def test_counter_gauge_histogram_timer(registry):
    registry.counter("c").inc()
    registry.counter("c").inc(3)
    registry.gauge("g").set(2.5)
    h = registry.histogram("h", edges=(1, 10))
    for v in (0, 1, 5, 100):
        h.observe(v)
    registry.timer("t").add(0.25)

    snap = registry.snapshot(timings=True)
    assert snap["counters"]["c"] == 4
    assert snap["gauges"]["g"]["value"] == 2.5
    assert snap["gauges"]["g"]["samples"] == 1
    assert snap["histograms"]["h"]["counts"] == [2, 1, 1]
    assert snap["histograms"]["h"]["edges"] == [1, 10]
    assert snap["timings"]["t"]["count"] == 1
    assert snap["timings"]["t"]["total_s"] == pytest.approx(0.25)


def test_instruments_are_cached_per_name(registry):
    assert registry.counter("x") is registry.counter("x")
    assert registry.histogram("h") is registry.histogram("h")


def test_span_records_timer_and_trace(registry):
    events = []

    class Sink:
        def record(self, name, t_s, dur_s, attrs):
            events.append((name, attrs))

    registry.trace_sink = Sink()
    with registry.span("stage", size=3):
        pass
    snap = registry.snapshot(timings=True)
    assert snap["timings"]["stage"]["count"] == 1
    assert events == [("stage", {"size": 3})]


# -- disabled default ------------------------------------------------------

def test_disabled_registry_is_noop_and_shared():
    reg = obs.get_registry()
    assert not reg.enabled
    null = reg.counter("anything")
    assert null is reg.gauge("else") is reg.histogram("h") is reg.timer("t")
    null.inc()
    null.set(1.0)
    null.observe(2.0)
    null.add(0.1)  # all silently ignored
    with reg.span("s"):
        pass
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_use_registry_restores_previous():
    outer = obs.get_registry()
    with obs.use_registry(obs.MetricsRegistry()) as reg:
        assert obs.get_registry() is reg
        obs.counter("inside").inc()
    assert obs.get_registry() is outer
    assert reg.snapshot()["counters"] == {"inside": 1}


# -- snapshots and merging -------------------------------------------------

def test_snapshot_excludes_timings_by_default(registry):
    registry.timer("t").add(1.0)
    registry.counter("c").inc()
    assert "timings" not in registry.snapshot()
    assert "timings" in registry.snapshot(timings=True)


def test_merge_snapshot_accumulates(registry):
    other = obs.MetricsRegistry()
    other.counter("c").inc(2)
    other.gauge("g").set(7.0)
    other.histogram("h", edges=(1,)).observe(0)
    other.timer("t").add(0.5)

    registry.counter("c").inc()
    registry.merge_snapshot(other.snapshot(timings=True))
    registry.merge_snapshot(other.snapshot(timings=True))

    snap = registry.snapshot(timings=True)
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"]["value"] == 7.0
    assert snap["gauges"]["g"]["samples"] == 2
    assert snap["histograms"]["h"]["counts"] == [2, 0]
    assert snap["timings"]["t"]["count"] == 2
    assert snap["timings"]["t"]["total_s"] == pytest.approx(1.0)


def test_merge_snapshot_ignores_none(registry):
    registry.counter("c").inc()
    registry.merge_snapshot(None)
    assert registry.snapshot()["counters"]["c"] == 1


# -- determinism -----------------------------------------------------------

def _scheduling_run() -> str:
    from repro.api import Scenario

    with obs.use_registry(obs.MetricsRegistry()) as reg:
        scenario = Scenario(
            topology=chain_topology(6),
            flows=[Flow("voip0", src=0, dst=5, rate_bps=80_000,
                        delay_budget_s=0.1)])
        scenario.route().schedule()
    return reg.to_json()


def test_metrics_snapshots_are_byte_identical():
    """Identical runs produce byte-identical JSON (no wall-clock leakage)."""
    assert _scheduling_run() == _scheduling_run()


def test_instrumented_counters_cover_the_solver_stack():
    from repro.api import Scenario

    def schedule(flow):
        with obs.use_registry(obs.MetricsRegistry()) as reg:
            Scenario(topology=chain_topology(5),
                     flows=[flow]).route().schedule()
        return (reg.snapshot()["counters"],
                reg.snapshot(timings=True)["timings"])

    # no delay budget: first-fit certifies the floor and no ILP runs
    counters, timings = schedule(Flow("f", src=0, dst=4, rate_bps=64_000))
    assert counters["core.minslots.searches"] == 1
    assert counters["core.minslots.bounds_closed"] == 1
    assert counters["core.minslots.probes"] == 1
    assert "core.ilp.solves" not in counters
    assert "core.minslots.search" in timings
    # a one-frame budget first-fit misses: the gap search probes the ILP
    counters, timings = schedule(Flow("up", src=4, dst=0, rate_bps=64_000,
                                      delay_budget_s=0.01))
    assert counters["core.minslots.searches"] == 1
    assert "core.minslots.bounds_closed" not in counters
    assert counters["core.minslots.probes"] >= 1
    assert counters["core.ilp.solves"] >= 1
    assert "core.minslots.search" in timings
    assert "core.ilp.solve" in timings


def test_write_metrics_json_is_canonical(registry, tmp_path):
    registry.counter("b").inc()
    registry.counter("a").inc()
    registry.timer("t").add(1.0)
    path = tmp_path / "metrics.json"
    obs.write_metrics_json(str(path), registry)
    text = path.read_text()
    snap = json.loads(text)
    assert "timings" not in snap
    assert list(snap["counters"]) == ["a", "b"]
    # canonical form: re-dumping with the same options is a fixed point
    assert text == json.dumps(snap, indent=2, sort_keys=True) + "\n" or \
        text == json.dumps(snap, sort_keys=True,
                           separators=(",", ":")) + "\n"


def test_obs_disabled_does_not_change_results():
    """The instrumentation seam must not perturb the schedule itself."""
    from repro.api import Scenario

    def run():
        scenario = Scenario(
            topology=chain_topology(6),
            flows=[Flow("voip0", src=0, dst=5, rate_bps=80_000,
                        delay_budget_s=0.1)])
        result = scenario.route().schedule()
        return result.slots, result.schedule.to_dict()

    baseline = run()
    with obs.use_registry(obs.MetricsRegistry()):
        observed = run()
    assert observed == baseline


# -- tracing ---------------------------------------------------------------

def test_trace_writer_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    writer = obs.TraceWriter(str(path))
    with obs.use_registry(obs.MetricsRegistry()) as reg:
        reg.trace_sink = writer
        with reg.span("alpha", k=1):
            with reg.span("beta"):
                pass
    writer.close()
    spans = obs.read_trace(str(path))
    assert [s["name"] for s in spans] == ["beta", "alpha"]
    assert spans[1]["k"] == 1
    assert all(s["dur_s"] >= 0 for s in spans)


def test_format_profile_lists_stages(registry):
    registry.timer("core.ilp.solve").add(0.5)
    registry.timer("core.ilp.solve").add(0.5)
    registry.counter("core.ilp.solves").inc(2)
    text = obs.format_profile(registry)
    assert "core.ilp.solve" in text
    assert "2" in text

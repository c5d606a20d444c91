"""Execution pool: serial/parallel parity, retries, timeouts, caching."""

import time

import pytest

from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.ledger import RunLedger
from repro.runtime.pool import run_tasks
from repro.runtime.tasks import make_task

ADD = "tests.runtime_helpers:add"
SLEEP = "tests.runtime_helpers:sleep_for"
BOOM = "tests.runtime_helpers:boom"
FLAKY = "tests.runtime_helpers:flaky"


def _add_tasks(n=6):
    return [make_task(ADD, {"a": i, "b": i}) for i in range(n)]


def test_serial_executes_in_order():
    results = run_tasks(_add_tasks(), jobs=1)
    assert [r.value for r in results] == [0, 2, 4, 6, 8, 10]
    assert all(r.outcome == "ok" for r in results)
    assert all(r.worker == "serial" for r in results)
    assert all(r.attempts == 1 for r in results)


def test_parallel_matches_serial_in_order_and_value():
    serial = run_tasks(_add_tasks(), jobs=1)
    parallel = run_tasks(_add_tasks(), jobs=3)
    assert [r.value for r in serial] == [r.value for r in parallel]
    assert [r.key for r in serial] == [r.key for r in parallel]
    assert all(r.worker.startswith("pid:") for r in parallel)


def test_parallel_overlaps_sleeps():
    """Six 0.3 s sleeps at jobs=3 must take well under 6 * 0.3 s."""
    tasks = [make_task(SLEEP, {"seconds": 0.3}) for _ in range(6)]
    started = time.perf_counter()
    results = run_tasks(tasks, jobs=3)
    wall = time.perf_counter() - started
    assert all(r.outcome == "ok" for r in results)
    assert wall < 1.4, f"no overlap: {wall:.2f}s"


def test_serial_runs_closures_in_process():
    captured = []

    def closure_task():
        captured.append(1)
        return "inline"

    results = run_tasks([make_task(closure_task)], jobs=1)
    assert results[0].value == "inline"
    assert captured == [1]


def test_failure_reported_not_raised():
    results = run_tasks([make_task(BOOM)], jobs=1)
    assert results[0].outcome == "failed"
    assert "RuntimeError: kaboom" in results[0].error
    assert results[0].value is None


@pytest.mark.parametrize("jobs", [1, 2])
def test_retry_then_succeed(tmp_path, jobs):
    task = make_task(FLAKY, {"sentinel_dir": str(tmp_path / f"j{jobs}"),
                             "fail_times": 2})
    results = run_tasks([task], jobs=jobs, retries=2, backoff_s=0.01)
    assert results[0].outcome == "ok"
    assert results[0].value == "recovered"
    assert results[0].attempts == 3


def test_retries_exhausted_reports_failure(tmp_path):
    task = make_task(FLAKY, {"sentinel_dir": str(tmp_path / "s"),
                             "fail_times": 5})
    results = run_tasks([task], jobs=1, retries=1, backoff_s=0.01)
    assert results[0].outcome == "failed"
    assert results[0].attempts == 2
    assert "flaky failure" in results[0].error


def test_timeout_path():
    tasks = [make_task(SLEEP, {"seconds": 2.0}),
             make_task(ADD, {"a": 1, "b": 1})]
    results = run_tasks(tasks, jobs=2, timeout_s=0.4)
    assert results[0].outcome == "timeout"
    assert "timed out" in results[0].error
    assert results[1].outcome == "ok"
    assert results[1].value == 2


def test_cache_hits_skip_execution(tmp_path):
    cache = ResultCache(tmp_path, version="t", fingerprint="f")
    tasks = _add_tasks(3)
    cold = run_tasks(tasks, jobs=1, cache=cache)
    assert [r.outcome for r in cold] == ["ok"] * 3
    warm = run_tasks(tasks, jobs=1, cache=cache)
    assert [r.outcome for r in warm] == ["cached"] * 3
    assert [r.value for r in warm] == [r.value for r in cold]
    assert all(r.worker == "cache" and r.attempts == 0 for r in warm)


def test_failed_tasks_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path, version="t", fingerprint="f")
    run_tasks([make_task(BOOM)], jobs=1, cache=cache)
    assert len(cache) == 0


def test_uncacheable_values_still_succeed(tmp_path):
    cache = ResultCache(tmp_path, version="t", fingerprint="f")
    task = make_task("tests.runtime_helpers:unpicklable_value")
    results = run_tasks([task], jobs=1, cache=cache)
    assert results[0].outcome == "ok"
    assert len(cache) == 0


def test_ledger_gets_one_entry_per_task(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.sqlite")
    cache = ResultCache(tmp_path / "c", version="t", fingerprint="f")
    tasks = _add_tasks(3) + [make_task(BOOM)]
    run_tasks(tasks, jobs=1, cache=cache, ledger=ledger)
    entries = ledger.entries()
    assert len(entries) == 4
    assert [e["outcome"] for e in entries] == ["ok", "ok", "ok", "failed"]
    assert all(e["wall_s"] >= 0.0 for e in entries)
    # second run: cache hits are ledgered too
    run_tasks(tasks[:3], jobs=1, cache=cache, ledger=ledger)
    assert [e["outcome"] for e in ledger.entries()[4:]] == ["cached"] * 3


def test_timeouts_not_retried_by_default():
    task = make_task(SLEEP, {"seconds": 2.0})
    results = run_tasks([task], jobs=2, timeout_s=0.2, retries=2,
                        backoff_s=0.01)
    assert results[0].outcome == "timeout"
    assert results[0].attempts == 1


def test_retry_timeouts_spends_the_retry_budget():
    from repro import obs

    task = make_task(SLEEP, {"seconds": 1.0})
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        results = run_tasks([task], jobs=2, timeout_s=0.15, retries=2,
                            backoff_s=0.01, retry_timeouts=True)
        counters = registry.snapshot()["counters"]
    assert results[0].outcome == "timeout"
    assert results[0].attempts == 3
    assert counters["runtime.pool.timeout_retries"] == 2


def test_injected_clock_and_sleep_run_backoff_instantly(tmp_path):
    """A 10 s exponential backoff schedule finishes in milliseconds."""
    slept = []
    now = [0.0]

    def fake_sleep(seconds):
        slept.append(seconds)
        now[0] += seconds

    task = make_task(FLAKY, {"sentinel_dir": str(tmp_path / "s"),
                             "fail_times": 3})
    started = time.perf_counter()
    results = run_tasks([task], jobs=1, retries=3, backoff_s=10.0,
                        clock=lambda: now[0], sleep=fake_sleep)
    wall = time.perf_counter() - started
    assert results[0].outcome == "ok"
    assert results[0].attempts == 4
    assert slept == [10.0, 20.0, 40.0]  # backoff_s * 2**(attempt-1)
    assert wall < 2.0, f"backoff really slept: {wall:.2f}s"


def test_backoff_jitter_is_deterministic_and_bounded(tmp_path):
    import shutil

    sentinel = tmp_path / "s"
    task = make_task(FLAKY, {"sentinel_dir": str(sentinel),
                             "fail_times": 2})

    def delays_for_run():
        shutil.rmtree(sentinel, ignore_errors=True)
        slept = []
        now = [0.0]

        def fake_sleep(seconds):
            slept.append(seconds)
            now[0] += seconds

        run_tasks([task], jobs=1, retries=2, backoff_s=1.0, jitter=0.5,
                  clock=lambda: now[0], sleep=fake_sleep)
        return slept

    first = delays_for_run()
    second = delays_for_run()
    assert first == second  # keyed by (task, attempt), not randomness
    for attempt, delay in enumerate(first, start=1):
        base = 1.0 * 2 ** (attempt - 1)
        assert base <= delay <= 1.5 * base


def test_permanent_errors_skip_the_retry_budget():
    from repro import obs

    task = make_task("tests.runtime_helpers:permanent_boom")
    for jobs in (1, 2):
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            results = run_tasks([task], jobs=jobs, retries=3,
                                backoff_s=0.01)
            counters = registry.snapshot()["counters"]
        assert results[0].outcome == "failed"
        assert results[0].attempts == 1, f"jobs={jobs}"
        assert "PermanentTaskError" in results[0].error
        assert counters["runtime.pool.permanent_failures"] == 1


def test_bad_arguments_rejected():
    with pytest.raises(ConfigurationError):
        run_tasks([], jobs=0)
    with pytest.raises(ConfigurationError):
        run_tasks([], retries=-1)
    with pytest.raises(ConfigurationError):
        run_tasks([], jitter=-0.1)


def test_on_result_fires_per_task():
    seen = []
    run_tasks(_add_tasks(3), jobs=1,
              on_result=lambda i, r: seen.append((i, r.value)))
    assert sorted(seen) == [(0, 0), (1, 2), (2, 4)]

"""Execution runtime: task keys and sharding, the pool, the result cache,
and experiment-level orchestration."""

import json
import time
from dataclasses import replace

import pytest

from repro.analysis.experiments import ALL_EXPERIMENTS, ExperimentResult
from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.pool import run_tasks
from repro.runtime.runner import dedupe_ids, run_experiments
from repro.runtime.tasks import (
    make_task,
    merge_experiment_results,
    resolve_target,
    run_task,
    shard_experiment,
    source_fingerprint,
    task_key,
)

from tests import runtime_helpers

ADD = "tests.runtime_helpers:add"
SLEEP = "tests.runtime_helpers:sleep_for"
BOOM = "tests.runtime_helpers:boom"
FLAKY = "tests.runtime_helpers:flaky"


def _add_tasks(n=6):
    return [make_task(ADD, {"a": i, "b": i}) for i in range(n)]


def _entries(cache):
    return [p for p in cache.results_dir.glob("*.json")
            if not p.name.endswith(".metrics.json")]


# ---------------------------------------------------------------------------
# Tasks: content keys, resolution, sharding
# ---------------------------------------------------------------------------

def test_key_stable_across_param_order():
    a = make_task("E9", {"guard_us": 60.0, "slot_durations_us": (300,)})
    b = make_task("E9", {"slot_durations_us": (300,), "guard_us": 60.0})
    assert task_key(a) == task_key(b)


def test_key_distinguishes_target_params_seed():
    base = make_task("E9", {"guard_us": 60.0})
    assert task_key(base) != task_key(make_task("E4", {"guard_us": 60.0}))
    assert task_key(base) != task_key(make_task("E9", {"guard_us": 30.0}))
    assert task_key(base) != task_key(make_task("E9", {"guard_us": 60.0},
                                                seed=3))


def test_key_folds_in_version_and_fingerprint():
    task = make_task("E9")
    assert task_key(task, version="1") != task_key(task, version="2")
    assert task_key(task, fingerprint="a") != task_key(task,
                                                       fingerprint="b")


def test_source_fingerprint_is_stable_within_process():
    assert source_fingerprint() == source_fingerprint()
    assert len(source_fingerprint()) == 16


def test_resolve_experiment_id_case_insensitive():
    assert resolve_target(make_task("e9")) is ALL_EXPERIMENTS["E9"].run


def test_resolve_dotted_path():
    task = make_task(ADD, {"a": 2, "b": 3})
    assert resolve_target(task) is runtime_helpers.add
    assert run_task(task) == 5


def test_callable_target_keeps_fn_and_gets_stable_name():
    task = make_task(runtime_helpers.add, {"a": 1, "b": 1})
    assert task.target == ADD
    assert run_task(task) == 2


def test_seeded_task_receives_rng_registry():
    one = run_task(make_task(runtime_helpers.seed_echo, seed=7))
    two = run_task(make_task(runtime_helpers.seed_echo, seed=7))
    other = run_task(make_task(runtime_helpers.seed_echo, seed=8))
    assert one == two
    assert one != other


def test_unknown_targets_rejected():
    with pytest.raises(ConfigurationError):
        resolve_target(make_task("E99"))
    with pytest.raises(ConfigurationError):
        resolve_target(make_task("not-a-dotted-path"))
    with pytest.raises(ConfigurationError):
        make_task(1234)


def test_declarations_name_real_parameters():
    import inspect

    for exp_id, declared in ALL_EXPERIMENTS.items():
        assert declared.id == exp_id
        accepted = inspect.signature(declared.run).parameters
        axis = [] if declared.shard_axis is None else [declared.shard_axis]
        for key in [*axis, *declared.reduced, *declared.bench]:
            assert key in accepted, (exp_id, key)


def test_shard_expansion_covers_axis():
    tasks = shard_experiment("E9")
    values = [dict(t.params)["slot_durations_us"] for t in tasks]
    assert [v[0] for v in values] == [300, 400, 525, 800, 1200, 2000]
    assert all(len(v) == 1 for v in values)


def test_unshardable_experiment_is_one_task():
    tasks = shard_experiment("E7")
    assert len(tasks) == 1
    assert tasks[0].params == ()


def test_sharded_run_merges_to_serial_table():
    serial = ALL_EXPERIMENTS["E9"].run()
    shards = [run_task(t) for t in shard_experiment("E9")]
    merged = merge_experiment_results(shards)
    assert merged.headers == serial.headers
    assert merged.rows == serial.rows
    assert merged.title == serial.title
    assert merged.table() == serial.table()


def test_label_mentions_target_params_and_seed():
    task = make_task("E9", {"guard_us": 60.0}, seed=3)
    assert "E9" in task.label
    assert "guard_us" in task.label
    assert "@s3" in task.label


def test_shard_params_checked_against_the_experiment():
    with pytest.raises(ConfigurationError, match="no parameter 'bogus'"):
        shard_experiment("E9", {"bogus": 1})
    with pytest.raises(ConfigurationError, match="needs a list"):
        shard_experiment("E21", {"sizes": 5})
    with pytest.raises(ConfigurationError, match="needs a list"):
        shard_experiment("E9", {"slot_durations_us": "300"})
    assert len(shard_experiment("E21", {"sizes": [[24, 16]]})) == 1


# ---------------------------------------------------------------------------
# Pool: serial/parallel parity, failures, caching
# ---------------------------------------------------------------------------

def test_serial_executes_in_order():
    results = run_tasks(_add_tasks(), jobs=1)
    assert [r.value for r in results] == [0, 2, 4, 6, 8, 10]
    assert all(r.outcome == "ok" for r in results)


def test_parallel_matches_serial_in_order_and_value():
    serial = run_tasks(_add_tasks(), jobs=1)
    parallel = run_tasks(_add_tasks(), jobs=3)
    assert [r.value for r in serial] == [r.value for r in parallel]
    assert [r.key for r in serial] == [r.key for r in parallel]
    assert all(r.outcome == "ok" for r in parallel)


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
def test_raising_task_fails_once_without_retry(tmp_path, jobs):
    """A task that would succeed on a second attempt is never given one."""
    sentinel = tmp_path / "attempts"
    task = make_task(FLAKY, {"sentinel_dir": str(sentinel),
                             "fail_times": 1})
    results = run_tasks([task, make_task(ADD, {"a": 1, "b": 1})],
                        jobs=jobs)
    assert results[0].outcome == "failed"
    assert "flaky failure #1" in results[0].error
    assert len(list(sentinel.iterdir())) == 1
    assert results[1].value == 2


def test_crashed_worker_fails_its_task():
    results = run_tasks([make_task("tests.runtime_helpers:die")], jobs=2)
    assert results[0].outcome == "failed"
    assert "BrokenProcessPool" in results[0].error


def test_cache_hits_skip_execution(tmp_path):
    cache = ResultCache(tmp_path, version="t", fingerprint="f")
    tasks = _add_tasks(3)
    cold = run_tasks(tasks, jobs=1, cache=cache)
    assert [r.outcome for r in cold] == ["ok"] * 3
    warm = run_tasks(tasks, jobs=1, cache=cache)
    assert [r.outcome for r in warm] == ["cached"] * 3
    assert [r.value for r in warm] == [r.value for r in cold]


def test_failed_tasks_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path, version="t", fingerprint="f")
    run_tasks([make_task(BOOM)], jobs=1, cache=cache)
    assert _entries(cache) == []


def test_uncacheable_values_still_succeed(tmp_path):
    cache = ResultCache(tmp_path, version="t", fingerprint="f")
    task = make_task("tests.runtime_helpers:unpicklable_value")
    results = run_tasks([task], jobs=1, cache=cache)
    assert results[0].outcome == "ok"
    assert _entries(cache) == []


def test_bad_arguments_rejected():
    with pytest.raises(ConfigurationError):
        run_tasks([], jobs=0)


def test_on_result_fires_per_task():
    seen = []
    run_tasks(_add_tasks(3), jobs=1,
              on_result=lambda i, r: seen.append((i, r.value)))
    assert sorted(seen) == [(0, 0), (1, 2), (2, 4)]


# ---------------------------------------------------------------------------
# Cache: round-trips, misses, invalidation, damage
# ---------------------------------------------------------------------------

@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", version="1.0-test",
                       fingerprint="fp0")


def test_miss_on_empty_cache(cache):
    assert cache.get(make_task("E9")) is None


def test_mapping_round_trip(cache):
    task = make_task(ADD, {"a": 1, "b": 2})
    cache.put(task, {"loss": 0.25, "delay_ms": 3.5}, wall_s=1.25)
    entry = cache.get(task)
    assert entry.value == {"loss": 0.25, "delay_ms": 3.5}
    assert entry.wall_s == 1.25


def test_experiment_result_round_trips_table_exactly(cache):
    result = ALL_EXPERIMENTS["E9"].run()
    task = make_task("E9")
    cache.put(task, result, wall_s=0.1)
    loaded = cache.get(task).value
    assert isinstance(loaded, ExperimentResult)
    assert loaded.table() == result.table()
    assert loaded.rows == result.rows


def test_different_params_miss(cache):
    cache.put(make_task("E9", {"guard_us": 60.0}), {"x": 1})
    assert cache.get(make_task("E9", {"guard_us": 30.0})) is None


def test_version_bump_invalidates(tmp_path):
    old = ResultCache(tmp_path, version="1", fingerprint="fp")
    task = make_task("E9")
    old.put(task, {"x": 1})
    assert old.get(task).value == {"x": 1}
    bumped = ResultCache(tmp_path, version="2", fingerprint="fp")
    assert bumped.get(task) is None


def test_source_fingerprint_change_invalidates(tmp_path):
    before = ResultCache(tmp_path, version="1", fingerprint="aaaa")
    task = make_task("E9")
    before.put(task, {"x": 1})
    after = ResultCache(tmp_path, version="1", fingerprint="bbbb")
    assert after.get(task) is None
    # and the old view still hits -- entries are content-addressed
    assert before.get(task).value == {"x": 1}


def test_uncacheable_value_rejected(cache):
    with pytest.raises(ValueError):
        cache.put(make_task("E9"), object())


@pytest.mark.parametrize("damage", [
    "{ not json",
    "[1, 2, 3]",
    json.dumps({"version": "0.9", "fingerprint": "fp0", "value": 2}),
    json.dumps({"version": "1.0-test", "fingerprint": "fp0",
                "value": {"__kind__": "experiment_result"}}),
], ids=["truncated", "wrong-shape", "foreign-version", "table-fields-lost"])
def test_damaged_or_foreign_entry_reads_as_miss_and_is_overwritten(
        cache, damage):
    task = make_task(ADD, {"a": 1, "b": 1})
    key = cache.put(task, 2)
    path = cache.results_dir / f"{key}.json"
    path.write_text(damage)
    assert cache.get(task) is None
    # The pool recomputes the miss and its write replaces the entry.
    results = run_tasks([task], jobs=1, cache=cache)
    assert results[0].outcome == "ok"
    assert cache.get(task).value == 2
    assert run_tasks([task], jobs=1, cache=cache)[0].outcome == "cached"


def test_damaged_metrics_sidecar_reads_as_none(cache):
    task = make_task("E9")
    key = cache.put_metrics(task, {"counters": {"a": 1}})
    assert cache.get_metrics(task) == {"counters": {"a": 1}}
    (cache.results_dir / f"{key}.metrics.json").write_text("garbage")
    assert cache.get_metrics(task) is None


def test_two_processes_race_on_one_cache_dir(tmp_path):
    """Two sweeps over identical tasks share one cache directory.

    Every write races; atomic renames must leave a fully consistent
    cache -- no torn entries, no leftover temporary files.
    """
    import multiprocessing

    from tests.runtime_helpers import cache_writer_sweep

    cache_dir = str(tmp_path / "shared")
    context = multiprocessing.get_context("fork")
    with context.Pool(2) as pool:
        counts = pool.starmap(cache_writer_sweep,
                              [(cache_dir, 8), (cache_dir, 8)])
    assert counts == [8, 8]

    shared = ResultCache(cache_dir)
    assert all(shared.get(task) is not None for task in _add_tasks(8))
    entry_files = list(shared.results_dir.glob("*.json"))
    assert len(entry_files) == 8
    for path in entry_files:
        json.loads(path.read_text())
    assert not list(shared.results_dir.glob("*.tmp"))


# ---------------------------------------------------------------------------
# Runner: sharding, merging, failure isolation
# ---------------------------------------------------------------------------

def test_dedupe_ids_preserves_order():
    assert dedupe_ids(["e2", "E4", "E2", "e4", "E1"]) == ["E2", "E4", "E1"]


def test_sharded_experiment_matches_direct_call(tmp_path):
    direct = ALL_EXPERIMENTS["E9"].run()
    outcomes = run_experiments(["E9"], jobs=1,
                               cache_dir=str(tmp_path / "c"))
    assert len(outcomes) == 1
    outcome = outcomes[0]
    assert outcome.ok
    assert outcome.shards == 6  # one per slot duration
    assert outcome.result.table() == direct.table()


def test_parallel_table_identical_to_serial(tmp_path):
    serial = run_experiments(["E9"], jobs=1, use_cache=False,
                             cache_dir=str(tmp_path / "a"))
    parallel = run_experiments(["E9"], jobs=3, use_cache=False,
                               cache_dir=str(tmp_path / "b"))
    assert serial[0].result.table() == parallel[0].result.table()


def test_second_run_served_from_cache(tmp_path):
    cache_dir = str(tmp_path / "c")
    cold = run_experiments(["E9"], jobs=1, cache_dir=cache_dir)
    warm = run_experiments(["E9"], jobs=1, cache_dir=cache_dir)
    assert not cold[0].cached
    assert warm[0].cached
    assert warm[0].result.table() == cold[0].result.table()


def test_failure_isolated_per_experiment(tmp_path, monkeypatch):
    calls = []

    def explode(**kwargs):
        calls.append(kwargs)
        raise RuntimeError("synthetic experiment failure")

    monkeypatch.setitem(ALL_EXPERIMENTS, "E9",
                        replace(ALL_EXPERIMENTS["E9"], run=explode))
    outcomes = run_experiments(["E9", "E3"], jobs=1, use_cache=False,
                               cache_dir=str(tmp_path))
    by_id = {o.experiment: o for o in outcomes}
    assert by_id["E9"].outcome == "failed"
    assert "synthetic experiment failure" in by_id["E9"].error
    assert len(calls) == 1  # failed once, never retried
    assert by_id["E3"].ok


def test_bad_params_rejected_before_anything_runs(tmp_path):
    with pytest.raises(ConfigurationError):
        run_experiments(["E3", "E9"], params={"bogus": 1},
                        cache_dir=str(tmp_path))
    assert not (tmp_path / "results").exists()


def test_on_experiment_callback_order_and_indices(tmp_path):
    seen = []
    run_experiments(["E9", "E3"], jobs=1, cache_dir=str(tmp_path),
                    on_experiment=lambda i, o: seen.append(
                        (i, o.experiment, o.ok)))
    assert seen == [(0, "E9", True), (1, "E3", True)]

"""Suite integration: run experiments through the execution runtime.

:func:`run_experiments` is what ``python -m repro`` (and anything else
that wants whole experiments rather than raw tasks) calls.  It

1. dedupes the requested ids while preserving order,
2. expands each experiment into shard tasks along its parallel axis
   (:func:`repro.runtime.tasks.shard_experiment`), so one slow
   experiment spreads across workers and caches per sweep point,
3. pushes everything through :func:`repro.runtime.pool.run_tasks`
   with the result cache and run ledger attached, and
4. reassembles per-shard tables into one
   :class:`~repro.analysis.experiments.ExperimentResult` per id,
   reporting outcomes *in requested order*.

Sharding is deterministic and row-order preserving: each shard is the
experiment called with a singleton sweep axis, and every experiment in
:data:`~repro.runtime.tasks.SHARD_AXES` draws its randomness per axis
value, so the merged table is identical to a monolithic serial run.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro import obs
from repro.runtime.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runtime.ledger import DEFAULT_LEDGER_NAME, RunLedger
from repro.runtime.pool import run_tasks
from repro.runtime.tasks import (
    TaskResult,
    merge_experiment_results,
    shard_experiment,
)


@dataclass
class ExperimentOutcome:
    """Final state of one requested experiment."""

    experiment: str
    outcome: str  # "ok" | "failed" | "skipped"
    result: Optional[object] = None  # ExperimentResult when ok
    error: Optional[str] = None
    wall_s: float = 0.0  # summed compute time across shards
    cached: bool = False  # every shard came from the cache
    shards: int = 1

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def dedupe_ids(ids: Sequence[str]) -> list[str]:
    """Uppercase and drop repeats while preserving first-seen order."""
    return list(dict.fromkeys(e.upper() for e in ids))


def run_experiments(ids: Sequence[str], *,
                    jobs: Optional[int] = 1,
                    use_cache: bool = True,
                    cache_dir: str = DEFAULT_CACHE_DIR,
                    ledger_path: Optional[str] = None,
                    resume: bool = False,
                    timeout_s: Optional[float] = None,
                    retries: int = 1,
                    backoff_s: float = 0.5,
                    jitter: float = 0.0,
                    retry_timeouts: bool = False,
                    chaos=None,
                    heartbeat_s: float = 5.0,
                    shard: bool = True,
                    params: Optional[Mapping[str, Any]] = None,
                    on_experiment: Optional[
                        Callable[[int, ExperimentOutcome], None]] = None,
                    metrics: Optional[obs.MetricsRegistry] = None,
                    trace=None,
                    ) -> list[ExperimentOutcome]:
    """Run experiments by id; one :class:`ExperimentOutcome` per id.

    ``on_experiment(index, outcome)`` fires the moment all of an
    experiment's shards have finished -- out of requested order when
    ``jobs > 1``.  The returned list is always in requested order.
    Failures never raise: they come back as ``outcome="failed"`` with
    the (deduplicated) shard error strings, so one broken experiment
    cannot take down the rest of a long suite run.

    ``params`` overrides experiment keyword arguments -- applied to
    every requested id, so it is most useful running one experiment
    (``python -m repro E21 --param sizes=[[24,16]]``).  Sharding
    honours overridden axis values and cache keys include the params.

    ``metrics`` turns on collection: every fresh task runs inside its
    own registry, the deterministic snapshots are merged into the given
    registry *in flat task order* (so the aggregate is identical for
    any ``jobs`` value), and each cached result's metrics sidecar is
    merged the same way.  Runtime-level counters and timers
    (``runtime.tasks.*``, ``runtime.task``, ``runtime.queue``) land in
    the same registry.  ``trace`` (a
    :class:`~repro.obs.tracing.TraceWriter`) streams spans, serial mode
    only.

    ``chaos`` threads a
    :class:`~repro.runtime.chaos.ChaosPolicy` into the pool;
    ``retry_timeouts`` and ``jitter`` are forwarded to
    :func:`~repro.runtime.pool.run_tasks` unchanged.
    """
    ids = dedupe_ids(ids)
    cache = ResultCache(cache_dir) if use_cache else None
    ledger = RunLedger(ledger_path if ledger_path is not None
                       else pathlib.Path(cache_dir) / DEFAULT_LEDGER_NAME)
    completed_keys = ledger.completed_keys() if resume else set()
    if resume:
        # Tasks a previous run started but never finished (crash,
        # SIGKILL) are orphans: they are absent from completed_keys, so
        # they re-run below; surfacing them here feeds the
        # runtime.ledger.orphans_detected counter and the summary view.
        ledger.orphans()

    # Expand every experiment into its shard tasks; remember the map
    # from flat task index back to (experiment, shard slot).
    if shard:
        shard_lists = [shard_experiment(exp_id, params) for exp_id in ids]
    else:
        from repro.runtime.tasks import make_task

        shard_lists = [[make_task(exp_id, params)] for exp_id in ids]
    flat_tasks = []
    flat_owner: list[tuple[int, int]] = []  # (experiment idx, shard idx)
    for exp_index, shard_tasks in enumerate(shard_lists):
        for shard_index, task in enumerate(shard_tasks):
            flat_tasks.append(task)
            flat_owner.append((exp_index, shard_index))

    shard_results: list[list[Optional[TaskResult]]] = [
        [None] * len(shards) for shards in shard_lists]
    remaining = [len(shards) for shards in shard_lists]
    outcomes: list[Optional[ExperimentOutcome]] = [None] * len(ids)

    def settle(exp_index: int) -> None:
        outcomes[exp_index] = _assemble(ids[exp_index],
                                        shard_results[exp_index])
        if on_experiment is not None:
            on_experiment(exp_index, outcomes[exp_index])

    def on_result(flat_index: int, result: TaskResult) -> None:
        exp_index, shard_index = flat_owner[flat_index]
        shard_results[exp_index][shard_index] = result
        remaining[exp_index] -= 1
        if remaining[exp_index] == 0:
            settle(exp_index)

    task_results: list[Optional[TaskResult]] = [None] * len(flat_tasks)

    def track(flat_index: int, result: TaskResult) -> None:
        task_results[flat_index] = result
        on_result(flat_index, result)

    # Resume pass: tasks the ledger says finished before, but whose
    # value is not in the cache, are skipped rather than recomputed.
    to_run, to_run_index = [], []
    for flat_index, task in enumerate(flat_tasks):
        key = cache.key_for(task) if cache is not None else None
        in_cache = cache is not None and cache.get(task) is not None
        if resume and not in_cache and \
                (key or _keyless(task)) in completed_keys:
            track(flat_index, TaskResult(
                task=task, key=key or _keyless(task), outcome="skipped",
                error="previously completed; value not cached",
                attempts=0, worker="resume"))
        else:
            to_run.append(task)
            to_run_index.append(flat_index)

    try:
        if to_run:
            run_tasks(to_run, jobs=jobs, timeout_s=timeout_s,
                      retries=retries, backoff_s=backoff_s, jitter=jitter,
                      retry_timeouts=retry_timeouts, chaos=chaos,
                      heartbeat_s=heartbeat_s, cache=cache, ledger=ledger,
                      on_result=lambda i, r: track(to_run_index[i], r),
                      collect_metrics=metrics is not None,
                      trace=trace if (jobs == 1) else None)
    finally:
        ledger.close()

    if metrics is not None:
        # Merge in flat-task order, not completion order: float sums are
        # then reproducible for any jobs value.
        for result in task_results:
            if result is None:
                continue
            metrics.merge_snapshot(result.metrics)
            metrics.counter(f"runtime.tasks.{result.outcome}").inc()
            metrics.timer("runtime.task").add(result.wall_s)
            metrics.timer("runtime.queue").add(result.queue_s)
    return [outcome for outcome in outcomes if outcome is not None]


def _keyless(task) -> str:
    from repro.runtime.tasks import task_key

    return task_key(task)


def _assemble(experiment_id: str,
              results: Sequence[Optional[TaskResult]]
              ) -> ExperimentOutcome:
    results = [r for r in results if r is not None]
    shards = len(results)
    wall = sum(r.wall_s for r in results)
    skipped = [r for r in results if r.outcome == "skipped"]
    bad = [r for r in results if not r.ok and r.outcome != "skipped"]
    if bad:
        errors = list(dict.fromkeys(
            f"{r.task.label}: {r.error or r.outcome}" for r in bad))
        return ExperimentOutcome(experiment_id, "failed",
                                 error="; ".join(errors), wall_s=wall,
                                 shards=shards)
    if skipped:
        return ExperimentOutcome(
            experiment_id, "skipped", wall_s=wall, shards=shards,
            error="previously completed (--resume); table not in cache, "
                  "re-run without --resume to regenerate it")
    merged = merge_experiment_results([r.value for r in results]) \
        if shards > 1 else results[0].value
    return ExperimentOutcome(
        experiment_id, "ok", result=merged, wall_s=wall,
        cached=all(r.outcome == "cached" for r in results), shards=shards)

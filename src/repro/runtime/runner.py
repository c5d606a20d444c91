"""Suite integration: run experiments through the execution runtime.

:func:`run_experiments` is what ``python -m repro`` (and anything else
that wants whole experiments rather than raw tasks) calls.  It

1. dedupes the requested ids while preserving order,
2. expands each experiment into shard tasks along its parallel axis
   (:func:`repro.runtime.tasks.shard_experiment`), so one slow
   experiment spreads across workers and caches per sweep point,
3. pushes everything through :func:`repro.runtime.pool.run_tasks`
   with the result cache attached, and
4. reassembles per-shard tables into one
   :class:`~repro.analysis.experiments.ExperimentResult` per id,
   reporting outcomes *in requested order*.

Sharding is deterministic and row-order preserving: each shard is the
experiment called with a singleton sweep axis, and every experiment
whose declaration in :data:`~repro.analysis.experiments.ALL_EXPERIMENTS`
names a shard axis draws its randomness per axis value, so the merged
table is identical to a monolithic serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro import obs
from repro.runtime.cache import DEFAULT_CACHE_DIR, ResultCache
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
    outcome: str  # "ok" | "failed"
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
    A key an experiment does not take, or a sweep-axis value that is
    not a list, raises :class:`~repro.errors.ConfigurationError` before
    anything runs.

    ``metrics`` turns on collection: every fresh task runs inside its
    own registry, the deterministic snapshots are merged into the given
    registry *in flat task order* (so the aggregate is identical for
    any ``jobs`` value), and each cached result's metrics sidecar is
    merged the same way.  Runtime-level counters and timers
    (``runtime.tasks.*``, ``runtime.task``) land in the same registry.
    ``trace`` (a :class:`~repro.obs.tracing.TraceWriter`) streams spans,
    serial mode only.
    """
    ids = dedupe_ids(ids)
    cache = ResultCache(cache_dir) if use_cache else None

    # Expand every experiment into its shard tasks; remember the map
    # from flat task index back to (experiment, shard slot).
    shard_lists = [shard_experiment(exp_id, params) for exp_id in ids]
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

    def on_result(flat_index: int, result: TaskResult) -> None:
        exp_index, shard_index = flat_owner[flat_index]
        shard_results[exp_index][shard_index] = result
        remaining[exp_index] -= 1
        if remaining[exp_index] == 0:
            outcomes[exp_index] = _assemble(ids[exp_index],
                                            shard_results[exp_index])
            if on_experiment is not None:
                on_experiment(exp_index, outcomes[exp_index])

    task_results = run_tasks(flat_tasks, jobs=jobs, cache=cache,
                             on_result=on_result,
                             collect_metrics=metrics is not None,
                             trace=trace if jobs == 1 else None)

    if metrics is not None:
        # Merge in flat-task order, not completion order: float sums are
        # then reproducible for any jobs value.
        for result in task_results:
            metrics.merge_snapshot(result.metrics)
            metrics.counter(f"runtime.tasks.{result.outcome}").inc()
            metrics.timer("runtime.task").add(result.wall_s)
    return outcomes


def _assemble(experiment_id: str,
              results: Sequence[TaskResult]) -> ExperimentOutcome:
    shards = len(results)
    wall = sum(r.wall_s for r in results)
    bad = [r for r in results if not r.ok]
    if bad:
        errors = list(dict.fromkeys(
            f"{r.task.label}: {r.error}" for r in bad))
        return ExperimentOutcome(experiment_id, "failed",
                                 error="; ".join(errors), wall_s=wall,
                                 shards=shards)
    merged = merge_experiment_results([r.value for r in results]) \
        if shards > 1 else results[0].value
    return ExperimentOutcome(
        experiment_id, "ok", result=merged, wall_s=wall,
        cached=all(r.outcome == "cached" for r in results), shards=shards)

"""Process-pool fan-out with a result cache.

:func:`run_tasks` is the single execution entry point of the runtime:
it takes a list of :class:`~repro.runtime.tasks.Task`, consults the
result cache, runs the misses -- inline when ``jobs=1``, otherwise on a
``ProcessPoolExecutor`` -- stores fresh successes back into the cache,
and returns one :class:`~repro.runtime.tasks.TaskResult` per input task
*in input order*, so callers see identical result sequences regardless
of ``jobs``.

Serial mode (``jobs=1``) never pickles anything and never forks: tasks
run in-process, closures work, ``pdb`` works, and ``trace`` streams
spans.  This is the debugging path and the Windows-safe path.

Every task is a deterministic computation, so nothing is retried: a
task that raises comes back once as ``outcome="failed"`` with the error
on record.  A worker process that dies breaks the pool, and every task
not yet finished fails with ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Optional, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.tasks import Task, TaskResult, run_task, task_key

#: ``on_result`` callback signature: (input index, finished result).
ResultCallback = Callable[[int, TaskResult], None]


def default_jobs() -> int:
    return os.cpu_count() or 1


def _execute(task: Task, collect_metrics: bool, trace=None) -> tuple:
    """Run one task, optionally inside a fresh metrics registry.

    Every task gets its *own* registry so per-task snapshots are
    independent of what ran before them in the same process -- the
    caller merges them in input order, making the aggregate identical
    for any ``jobs`` value.  Returns ``(value, snapshot-or-None,
    wall_s)``; exceptions propagate.
    """
    started = time.perf_counter()
    if not collect_metrics:
        return run_task(task), None, time.perf_counter() - started
    registry = obs.MetricsRegistry()
    registry.trace_sink = trace
    previous = obs.set_registry(registry)
    try:
        value = run_task(task)
    finally:
        obs.set_registry(previous)
    # Timings ride along for the caller's profile view; everything written
    # to disk (sidecar, --metrics) strips them back out for determinism.
    return value, registry.snapshot(timings=True), \
        time.perf_counter() - started


def _outcome(task: Task, key: str, call: Callable[[], tuple]) -> TaskResult:
    try:
        value, metrics, wall_s = call()
    except Exception as exc:  # noqa: BLE001 -- reported, not swallowed
        return TaskResult(task=task, key=key, outcome="failed",
                          error=f"{type(exc).__name__}: {exc}")
    return TaskResult(task=task, key=key, outcome="ok", value=value,
                      wall_s=wall_s, metrics=metrics)


def run_tasks(tasks: Sequence[Task], *,
              jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              on_result: Optional[ResultCallback] = None,
              collect_metrics: bool = False,
              trace=None) -> list[TaskResult]:
    """Execute ``tasks`` and return their results in input order.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``; ``1`` runs
        everything inline in this process.
    cache:
        Consulted before dispatch; successful fresh results are stored.
        A write that fails (full disk, unwritable directory) never fails
        the task -- the value is already in memory.
    on_result:
        Called once per task as it finishes, out of input order.
    collect_metrics:
        Execute each fresh task inside its own
        :class:`~repro.obs.metrics.MetricsRegistry`; the deterministic
        snapshot comes back on ``TaskResult.metrics`` (a cache hit
        reloads it from the entry's sidecar).
    trace:
        A :class:`~repro.obs.tracing.TraceWriter` receiving every span
        closed while tasks run.  Serial mode only (worker processes
        cannot share the parent's file handle); ignored when ``jobs>1``.
    """
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")

    results: list[Optional[TaskResult]] = [None] * len(tasks)

    def finish(index: int, result: TaskResult) -> None:
        results[index] = result
        if result.outcome == "ok" and cache is not None:
            _store(cache, result)
        if on_result is not None:
            on_result(index, result)

    # Cache pass: anything warm never reaches a worker.
    pending: list[tuple[int, Task, str]] = []
    for index, task in enumerate(tasks):
        key = cache.key_for(task) if cache is not None else task_key(task)
        hit = cache.get(task) if cache is not None else None
        if hit is not None:
            finish(index, TaskResult(
                task=task, key=key, outcome="cached", value=hit.value,
                wall_s=hit.wall_s,
                metrics=(cache.get_metrics(task) if collect_metrics
                         else None)))
        else:
            pending.append((index, task, key))

    if jobs == 1:
        for index, task, key in pending:
            finish(index, _outcome(
                task, key, lambda: _execute(task, collect_metrics, trace)))
    elif pending:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as executor:
            futures = {executor.submit(_execute, task, collect_metrics):
                       (index, task, key) for index, task, key in pending}
            for future in as_completed(futures):
                index, task, key = futures[future]
                finish(index, _outcome(task, key, future.result))
    return results


def _store(cache: ResultCache, result: TaskResult) -> None:
    """Write one result (and its metrics sidecar) to the cache.

    A value with no JSON form is simply not cached; a write error is
    counted and dropped, since the computed value is already in memory.
    """
    try:
        cache.put(result.task, result.value, wall_s=result.wall_s)
        if result.metrics is not None:
            cache.put_metrics(result.task, result.metrics)
    except ValueError:
        return
    except OSError:
        obs.counter("runtime.cache.write_errors").inc()

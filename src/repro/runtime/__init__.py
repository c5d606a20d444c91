"""Experiment-execution runtime.

The execution substrate for replications, benchmarks and the
``python -m repro`` CLI, reduced to the two contracts the tables need --
serial ≡ ``--jobs N`` and cached ≡ fresh:

- :mod:`repro.runtime.tasks` -- declarative tasks with stable content
  keys; experiment sharding along parallel sweep axes.
- :mod:`repro.runtime.pool` -- ``ProcessPoolExecutor`` fan-out (inline
  when ``jobs=1``) returning results in input order.
- :mod:`repro.runtime.cache` -- content-addressed JSON result cache
  under ``.repro_cache/`` (invalidated by version or source changes).
- :mod:`repro.runtime.runner` -- experiment-level orchestration used
  by the CLI.
"""

from repro.runtime.cache import DEFAULT_CACHE_DIR, CachedEntry, ResultCache
from repro.runtime.pool import default_jobs, run_tasks
from repro.runtime.runner import (
    ExperimentOutcome,
    dedupe_ids,
    run_experiments,
)
from repro.runtime.tasks import (
    Task,
    TaskResult,
    make_task,
    merge_experiment_results,
    resolve_target,
    run_task,
    shard_experiment,
    source_fingerprint,
    task_key,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CachedEntry",
    "ExperimentOutcome",
    "ResultCache",
    "Task",
    "TaskResult",
    "dedupe_ids",
    "default_jobs",
    "make_task",
    "merge_experiment_results",
    "resolve_target",
    "run_experiments",
    "run_task",
    "run_tasks",
    "shard_experiment",
    "source_fingerprint",
    "task_key",
]

"""Parallel experiment-execution runtime.

The single execution substrate for replications, parameter sweeps,
benchmarks, and the ``python -m repro`` CLI:

- :mod:`repro.runtime.tasks` -- declarative tasks with stable content
  keys; experiment sharding along parallel sweep axes.
- :mod:`repro.runtime.sweep` -- parameter grids expanded into task
  lists; resumable via the cache.
- :mod:`repro.runtime.pool` -- process-pool fan-out with bounded
  retries, backoff, per-task timeouts, and an in-process serial mode.
- :mod:`repro.runtime.cache` -- content-addressed JSON result cache
  under ``.repro_cache/`` (invalidated by version or source changes),
  safe for concurrent writers via per-key lockfiles and atomic renames.
- :mod:`repro.runtime.ledger` -- append-only run ledger in a
  sqlite-WAL database, with a query interface and a summary reader.
- :mod:`repro.runtime.chaos` -- deterministic seeded fault injection
  (worker crashes, hangs, transient errors, torn writes, full disk)
  for hardening the runtime itself.
- :mod:`repro.runtime.runner` -- experiment-level orchestration used
  by the CLI.
"""

from repro.runtime.cache import DEFAULT_CACHE_DIR, CachedEntry, ResultCache
from repro.runtime.chaos import ChaosPolicy, chaos_probe, deterministic_unit
from repro.runtime.ledger import (
    DEFAULT_LEDGER_NAME,
    LedgerSummary,
    RunLedger,
    format_ledger_summary,
    parse_query,
    summarize_ledger,
)
from repro.runtime.pool import default_jobs, run_tasks
from repro.runtime.runner import (
    ExperimentOutcome,
    dedupe_ids,
    run_experiments,
)
from repro.runtime.sweep import Sweep, run_sweep
from repro.runtime.tasks import (
    SHARD_AXES,
    Task,
    TaskResult,
    classify_error,
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
    "DEFAULT_LEDGER_NAME",
    "CachedEntry",
    "ChaosPolicy",
    "ExperimentOutcome",
    "LedgerSummary",
    "ResultCache",
    "RunLedger",
    "SHARD_AXES",
    "Sweep",
    "Task",
    "TaskResult",
    "chaos_probe",
    "classify_error",
    "dedupe_ids",
    "default_jobs",
    "deterministic_unit",
    "format_ledger_summary",
    "make_task",
    "parse_query",
    "merge_experiment_results",
    "resolve_target",
    "run_experiments",
    "run_sweep",
    "run_task",
    "run_tasks",
    "shard_experiment",
    "source_fingerprint",
    "summarize_ledger",
    "task_key",
]

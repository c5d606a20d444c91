"""Declarative task model for the experiment-execution runtime.

A :class:`Task` names one unit of work -- an experiment from
:data:`repro.analysis.experiments.ALL_EXPERIMENTS`, a seeded scenario
callable, or any importable function -- together with its keyword
parameters and (optionally) a root seed.  Tasks are *values*: two tasks
built from the same target/params/seed compare equal and hash to the
same stable content key, which is what the result cache is keyed by.

The content key also folds in the package version and a fingerprint of
the ``repro`` source tree, so editing any module invalidates cached
results computed with the old code (see
:func:`repro.fingerprint.source_fingerprint`).

Experiments that declare a shard axis (e.g. E1's ``call_counts``, see
:class:`repro.analysis.experiments.Experiment`) are *sharded* into one
task per axis value with :func:`shard_experiment`;
:func:`merge_experiment_results` stitches the per-shard tables back
together in axis order, row-for-row identical to a monolithic run (each
loop iteration builds its own :class:`~repro.sim.random.RngRegistry`,
so shards are independent).
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import repro
from repro.errors import ConfigurationError
from repro.fingerprint import source_fingerprint

TargetLike = Union[str, Callable]

_EXPERIMENT_ID = re.compile(r"^E\d+$")

def _jsonify(value: Any) -> Any:
    """Map ``value`` onto a canonical JSON-compatible structure.

    Tuples become lists, mapping keys become sorted strings, and objects
    with no natural JSON form fall back to their ``repr`` (dataclass
    reprs are deterministic, which is all hashing needs).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in sorted(value.items(),
                                                       key=lambda kv:
                                                       str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(v) for v in value)
    return repr(value)


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work: ``target(**params)`` or, when
    ``seed`` is set, ``target(RngRegistry(seed), **params)``."""

    target: str
    params: tuple = ()
    seed: Optional[int] = None
    #: Resolved callable when the task was built from one directly.
    #: Excluded from equality -- the ``target`` name is the identity.
    fn: Optional[Callable] = field(default=None, compare=False, repr=False)

    @property
    def kwargs(self) -> dict:
        return dict(self.params)

    @property
    def label(self) -> str:
        parts = [self.target]
        if self.params:
            inner = ",".join(f"{k}={_compact(v)}" for k, v in self.params)
            parts.append(f"[{inner}]")
        if self.seed is not None:
            parts.append(f"@s{self.seed}")
        return "".join(parts)

    def spec(self) -> dict:
        """JSON-compatible description (stored in each cache entry)."""
        return {"target": self.target,
                "params": _jsonify(dict(self.params)),
                "seed": self.seed}


def _compact(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 24 else text[:21] + "..."


def make_task(target: TargetLike,
              params: Optional[Mapping[str, Any]] = None,
              seed: Optional[int] = None) -> Task:
    """Build a :class:`Task` from an experiment id, dotted path, or callable.

    String targets are either an experiment id (``"E1"``,
    case-insensitive) or a ``"package.module:function"`` dotted path.
    Callable targets keep a reference for in-process execution and are
    named ``module:qualname`` so worker processes can re-import them.
    """
    fn: Optional[Callable] = None
    if callable(target):
        fn = target
        name = f"{target.__module__}:{target.__qualname__}"
    elif isinstance(target, str):
        name = target.upper() if _EXPERIMENT_ID.match(target.upper()) \
            else target
    else:
        raise ConfigurationError(
            f"task target must be a string or callable, got {target!r}")
    items = tuple(sorted((params or {}).items()))
    return Task(target=name, params=items,
                seed=None if seed is None else int(seed), fn=fn)


def task_key(task: Task, *, version: Optional[str] = None,
             fingerprint: Optional[str] = None) -> str:
    """Stable 16-hex-digit content hash of ``(task, code state)``."""
    payload = {
        "target": task.target,
        "params": _jsonify(dict(task.params)),
        "seed": task.seed,
        "version": version if version is not None else repro.__version__,
        "fingerprint": (fingerprint if fingerprint is not None
                        else source_fingerprint()),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def resolve_target(task: Task) -> Callable:
    """Return the callable a task names (re-importable in workers)."""
    if task.fn is not None:
        return task.fn
    if _EXPERIMENT_ID.match(task.target):
        from repro.analysis.experiments import ALL_EXPERIMENTS

        try:
            return ALL_EXPERIMENTS[task.target].run
        except KeyError:
            raise ConfigurationError(
                f"unknown experiment {task.target!r}; see --list") from None
    if ":" in task.target:
        module_name, _, qualname = task.target.partition(":")
        module = importlib.import_module(module_name)
        obj: Any = module
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if not callable(obj):
            raise ConfigurationError(f"{task.target!r} is not callable")
        return obj
    raise ConfigurationError(
        f"cannot resolve task target {task.target!r}: expected an "
        "experiment id like 'E1' or a 'module:function' path")


def run_task(task: Task) -> Any:
    """Execute a task in the current process and return its raw value."""
    fn = resolve_target(task)
    if task.seed is None:
        return fn(**task.kwargs)
    from repro.sim.random import RngRegistry

    return fn(RngRegistry(seed=task.seed), **task.kwargs)


@dataclass
class TaskResult:
    """Outcome of one task execution (or cache lookup)."""

    task: Task
    key: str
    outcome: str  # "ok" | "cached" | "failed"
    value: Any = None
    error: Optional[str] = None
    wall_s: float = 0.0
    #: deterministic metrics snapshot collected while the task ran (None
    #: when metrics collection was off for the run)
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.outcome in ("ok", "cached")


# ---------------------------------------------------------------------------
# Experiment sharding
# ---------------------------------------------------------------------------

def _check_params(experiment, params: Mapping[str, Any]) -> None:
    """Reject a key ``experiment.run`` does not take, or a shard-axis
    value that is no list."""
    try:
        accepted = inspect.signature(experiment.run).parameters
    except (TypeError, ValueError):
        return
    if not any(p.kind is inspect.Parameter.VAR_KEYWORD
               for p in accepted.values()):
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise ConfigurationError(
                f"{experiment.id} takes no parameter "
                f"{', '.join(map(repr, unknown))}; it takes "
                f"{', '.join(accepted)}")
    axis = experiment.shard_axis
    if axis in params and not isinstance(params[axis], (list, tuple)):
        raise ConfigurationError(
            f"{experiment.id} parameter {axis!r} is its sweep axis and "
            f"needs a list of values, got {params[axis]!r}")


def shard_experiment(experiment_id: str,
                     params: Optional[Mapping[str, Any]] = None
                     ) -> list[Task]:
    """Expand one experiment into per-axis-value tasks (or one task).

    Shard tasks carry ``{axis: (value,)}`` so every shard is itself a
    valid experiment invocation; cache entries are therefore per shard,
    and a re-run after a partial failure only recomputes missing points.

    ``params`` are checked against the experiment's signature first: an
    unknown key, or a sweep-axis value that is not a list, raises
    :class:`~repro.errors.ConfigurationError` before anything runs.
    """
    from repro.analysis.experiments import ALL_EXPERIMENTS

    experiment_id = experiment_id.upper()
    params = dict(params or {})
    experiment = ALL_EXPERIMENTS.get(experiment_id)
    if experiment is None:
        return [make_task(experiment_id, params)]
    _check_params(experiment, params)
    axis = experiment.shard_axis
    if axis is None:
        return [make_task(experiment_id, params)]
    if axis in params:
        values = tuple(params[axis])
    else:
        try:
            values = tuple(
                inspect.signature(experiment.run).parameters[axis].default)
        except (KeyError, TypeError, ValueError):
            # Replaced run function without the sweep axis in its
            # signature: run it unsharded.
            return [make_task(experiment_id, params)]
    if len(values) <= 1:
        return [make_task(experiment_id, params)]
    base = {k: v for k, v in params.items() if k != axis}
    return [make_task(experiment_id, {**base, axis: (value,)})
            for value in values]


def merge_experiment_results(shards: Sequence[Any]) -> Any:
    """Concatenate per-shard :class:`ExperimentResult` tables in order."""
    from repro.analysis.experiments import ExperimentResult

    if not shards:
        raise ConfigurationError("no shard results to merge")
    first = shards[0]
    merged = ExperimentResult(
        experiment=first.experiment, title=first.title,
        headers=list(first.headers), rows=[],
        notes=next((s.notes for s in shards if s.notes), ""))
    for shard in shards:
        merged.rows.extend(shard.rows)
    return merged

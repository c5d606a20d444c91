"""Content-addressed on-disk result cache.

Results live as one JSON file per task under ``<root>/results/``, named
by the task's content key (:func:`repro.runtime.tasks.task_key`).  The
key folds in the package version and a fingerprint of the source tree,
so bumping the version or editing any module makes every old entry
unreachable -- re-running ``--all`` after a code change recomputes
work, while an unchanged tree serves warm results in milliseconds.

Values are encoded through a small tagged-JSON layer so that
:class:`~repro.analysis.experiments.ExperimentResult` tables round-trip
exactly (JSON preserves Python floats bit-for-bit via ``repr``); plain
mappings/sequences of numbers pass through untouched.  Anything else is
rejected at :meth:`ResultCache.put` time with :class:`ValueError` -- the
pool then simply skips caching that task.

Writes are atomic (write-temp-then-rename), so a reader never sees half
an entry.  A file that is there but does not parse, lacks the expected
payload shape, or was written by another package version or source
tree reads as a plain miss: the pool recomputes the task and the fresh
write overwrites the entry.  Because keys are content hashes, two runs
racing over one cache directory write identical bytes, and whichever
rename lands last leaves a complete entry.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Optional

import repro
from repro.fingerprint import source_fingerprint
from repro.runtime.tasks import Task, task_key

_EXPERIMENT_TAG = "experiment_result"

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


def encode_value(value: Any) -> Any:
    """Encode a task value into a JSON-serializable structure."""
    from repro.analysis.experiments import ExperimentResult

    if isinstance(value, ExperimentResult):
        return {"__kind__": _EXPERIMENT_TAG,
                "experiment": value.experiment, "title": value.title,
                "headers": list(value.headers),
                "rows": [list(row) for row in value.rows],
                "notes": value.notes}
    # Round-trip through json to reject unserializable payloads early.
    try:
        json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"task value is not cacheable: {exc}") from exc
    return value


def decode_value(payload: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(payload, dict) and payload.get("__kind__") == \
            _EXPERIMENT_TAG:
        from repro.analysis.experiments import ExperimentResult

        return ExperimentResult(
            experiment=payload["experiment"], title=payload["title"],
            headers=list(payload["headers"]),
            rows=[list(row) for row in payload["rows"]],
            notes=payload.get("notes", ""))
    return payload


@dataclass
class CachedEntry:
    """A cache hit: the decoded value plus the original compute time."""

    value: Any
    wall_s: float


class ResultCache:
    """Filesystem-backed ``task -> value`` store under ``root``."""

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR, *,
                 version: Optional[str] = None,
                 fingerprint: Optional[str] = None) -> None:
        self.root = pathlib.Path(root)
        self.results_dir = self.root / "results"
        self.version = version if version is not None else repro.__version__
        self.fingerprint = (fingerprint if fingerprint is not None
                            else source_fingerprint())

    def key_for(self, task: Task) -> str:
        return task_key(task, version=self.version,
                        fingerprint=self.fingerprint)

    def _path(self, key: str) -> pathlib.Path:
        return self.results_dir / f"{key}.json"

    def _metrics_path(self, key: str) -> pathlib.Path:
        return self.results_dir / f"{key}.metrics.json"

    @staticmethod
    def _read(path: pathlib.Path) -> Any:
        """Parsed JSON at ``path``; ``None`` if missing or damaged."""
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def get(self, task: Task) -> Optional[CachedEntry]:
        """Return the cached entry for ``task``, or ``None`` on a miss.

        A damaged entry (unparseable, or JSON without the expected
        payload shape) and a foreign one (another version or source
        fingerprint) both read as a miss, so the caller recomputes and
        overwrites it.
        """
        payload = self._read(self._path(self.key_for(task)))
        if not isinstance(payload, dict) or "value" not in payload:
            return None
        # Defense in depth: the key already encodes version+fingerprint,
        # but a hand-copied file must not smuggle stale results in.
        if payload.get("version") != self.version or \
                payload.get("fingerprint") != self.fingerprint:
            return None
        try:
            return CachedEntry(value=decode_value(payload["value"]),
                               wall_s=float(payload.get("wall_s", 0.0)))
        except (KeyError, TypeError, ValueError):
            return None  # a table entry missing fields, or a bad wall_s

    def put(self, task: Task, value: Any, wall_s: float = 0.0) -> str:
        """Store ``value`` (write-temp-then-atomic-rename); returns the key.

        Raises :class:`ValueError` when ``value`` has no JSON form.
        """
        key = self.key_for(task)
        payload = {"task": task.spec(), "version": self.version,
                   "fingerprint": self.fingerprint, "wall_s": wall_s,
                   "value": encode_value(value)}
        self._write_atomic(self._path(key), json.dumps(payload))
        return key

    def _write_atomic(self, destination: pathlib.Path, text: str) -> None:
        self.results_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.results_dir,
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, destination)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- metrics sidecars ---------------------------------------------------

    def put_metrics(self, task: Task, snapshot: dict) -> str:
        """Store a task's metrics snapshot next to its result.

        The sidecar holds only the deterministic sections (no wall-clock
        timings), canonically serialized, so two identical runs write
        byte-identical sidecars.
        """
        key = self.key_for(task)
        deterministic = {k: v for k, v in snapshot.items() if k != "timings"}
        self._write_atomic(self._metrics_path(key),
                           json.dumps(deterministic, sort_keys=True,
                                      separators=(",", ":")))
        return key

    def get_metrics(self, task: Task) -> Optional[dict]:
        """The metrics sidecar stored for ``task``; ``None`` if missing
        or damaged."""
        snapshot = self._read(self._metrics_path(self.key_for(task)))
        return snapshot if isinstance(snapshot, dict) else None

"""JSONL span traces off the monotonic clock.

A :class:`TraceWriter` is the pluggable trace sink of a
:class:`~repro.obs.metrics.MetricsRegistry`: every ``span(...)`` block that
closes while the sink is attached appends one JSON line

    {"name": "core.ilp.solve", "t_s": 0.0412, "dur_s": 0.0389, ...attrs}

where ``t_s`` is the span's *start*, in seconds since the writer was opened
(monotonic -- :func:`time.perf_counter` -- so spans order correctly even
across wall-clock adjustments).  The format is line-delimited and
append-only: tolerant of crashes and trivially greppable / loadable with
one ``json.loads`` per line.

This module is stdlib-only, like everything in ``repro.obs``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Optional


class TraceWriter:
    """Append spans to a JSONL file; usable as a context manager."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._epoch = time.perf_counter()
        self.spans_written = 0

    def record(self, name: str, ended_at: float, duration_s: float,
               attrs: Optional[dict[str, Any]]) -> None:
        """Append one span.  ``ended_at`` is a ``perf_counter`` reading."""
        if self._handle is None:
            return
        entry: dict[str, Any] = {
            "name": name,
            "t_s": round(ended_at - duration_s - self._epoch, 9),
            "dur_s": round(duration_s, 9),
        }
        if attrs:
            for key, value in attrs.items():
                entry.setdefault(key, _plain(value))
        self._handle.write(json.dumps(entry) + "\n")
        self.spans_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _plain(value: Any) -> Any:
    """Coerce a span attribute to something JSON can hold."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return repr(value)


def read_trace(path: str | os.PathLike) -> list[dict]:
    """Load every well-formed span line; silently skip torn ones."""
    spans: list[dict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    spans.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    except OSError:
        return []
    return spans

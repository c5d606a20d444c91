"""Structured event tracing.

Protocol entities emit :class:`TraceRecord` entries ("mac.tx", "sync.beacon",
"voip.rx", ...) into a shared :class:`Trace`.  Tests and the experiment
harness assert on traces rather than scraping logs; the trace can be capped
to avoid unbounded memory in long runs.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TraceRecord:
    """One traced event: a timestamp, a dotted category, and free-form fields."""

    time: float
    category: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


class Trace:
    """Bounded in-memory trace with per-category counters.

    Counters are kept even for records evicted by the bound, so aggregate
    statistics (e.g. number of collisions) remain exact in long runs.

    Records are kept raw, as ``(time, category, fields)`` tuples: a run
    emits tens of thousands and reads few of them back.  Every read
    (:meth:`records`, :meth:`last`, :meth:`times`) builds fresh
    :class:`TraceRecord` objects, equal to what was emitted, around the
    same ``fields`` dicts.

    ``capacity`` is ``None`` (unbounded) or an ``int`` >= 0 -- the number
    of most recent records kept.
    """

    def __init__(self, capacity: Optional[int] = None,
                 enabled: bool = True) -> None:
        if capacity is not None and (type(capacity) is bool
                                     or not isinstance(capacity, int)
                                     or capacity < 0):
            raise ConfigurationError(
                f"trace capacity must be None or an int >= 0, "
                f"got {capacity!r}")
        self._records: deque[tuple[float, str, dict[str, Any]]] = deque(
            maxlen=capacity)
        self._counts: Counter[str] = Counter()
        self.enabled = enabled

    def emit(self, time: float, category: str, **fields: Any) -> None:
        """Record an event (no-op if tracing is disabled)."""
        if not self.enabled:
            return
        self._counts[category] += 1
        self._records.append((time, category, fields))

    def count(self, category: str) -> int:
        """Total number of events emitted under ``category``."""
        return self._counts[category]

    def categories(self) -> list[str]:
        """All categories seen so far, sorted."""
        return sorted(self._counts)

    def records(self, category: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate retained records, optionally filtered by exact category."""
        for time, record_category, fields in self._records:
            if category is None or record_category == category:
                yield TraceRecord(time, record_category, fields)

    def last(self, category: Optional[str] = None) -> Optional[TraceRecord]:
        """Most recent retained record (matching ``category`` if given)."""
        for time, record_category, fields in reversed(self._records):
            if category is None or record_category == category:
                return TraceRecord(time, record_category, fields)
        return None

    def times(self, category: str) -> list[float]:
        """Timestamps of retained records in ``category``."""
        return [time for time, record_category, ____ in self._records
                if record_category == category]

    def extend_counts(self, other_counts: Iterable[tuple[str, int]]) -> None:
        """Merge externally accumulated counters (used when joining traces)."""
        for category, count in other_counts:
            self._counts[category] += count

    def __len__(self) -> int:
        return len(self._records)

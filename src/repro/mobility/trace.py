"""Trace-driven mobility: replaying recorded node positions (S36).

A :class:`MobilityTrace` holds timestamped ``(t, node, x, y)`` samples
-- from a measurement campaign, an external simulator (ns-3, SUMO,
BonnMotion exports), or :meth:`MobilityTrace.from_model` sampling one of
the synthetic models -- and plays them back through the same duck-typed
motion interface the models expose (``nodes``, ``horizon_s``,
``position(node, t)``).

Between samples positions interpolate linearly.  Outside a node's
sampled span the node is *absent* (``position`` returns ``None``): a
node whose first sample is at t=30 joins the field at t=30, and one
whose last sample is at t=90 leaves then.  That is how traces express
node arrival and departure without a separate event vocabulary.

Two on-disk formats are supported, chosen by file suffix in
:meth:`load`:

- CSV with a ``t,node,x,y`` header (any column order);
- JSON Lines, one ``{"t": .., "node": .., "x": .., "y": ..}`` per line.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.errors import ConfigurationError

#: One trace sample: (time_s, node, x_m, y_m).
Sample = tuple[float, int, float, float]


class MobilityTrace:
    """An immutable per-node position timeline with linear interpolation."""

    def __init__(self, samples: Iterable[Sample]) -> None:
        series: dict[int, list[tuple[float, float, float]]] = {}
        for t, node, x, y in samples:
            t, node, x, y = float(t), int(node), float(x), float(y)
            if not all(map(math.isfinite, (t, x, y))):
                raise ConfigurationError(
                    f"trace sample for node {node} is not finite: "
                    f"t={t}, x={x}, y={y}")
            if t < 0:
                raise ConfigurationError(
                    f"trace sample for node {node} has negative time {t}")
            series.setdefault(node, []).append((t, x, y))
        if not series:
            raise ConfigurationError("trace has no samples")
        for node, points in series.items():
            points.sort(key=lambda p: p[0])
            for prev, cur in zip(points, points[1:]):
                if cur[0] == prev[0]:
                    raise ConfigurationError(
                        f"trace has duplicate samples for node {node} "
                        f"at t={cur[0]}")
        self._times = {node: [p[0] for p in points]
                       for node, points in series.items()}
        self._points = series
        self.nodes: tuple[int, ...] = tuple(sorted(series))
        self.horizon_s: float = max(times[-1]
                                    for times in self._times.values())

    def span(self, node: int) -> tuple[float, float]:
        """The ``[first, last]`` sampled time span of ``node``."""
        times = self._times.get(node)
        if times is None:
            raise ConfigurationError(f"node {node} is not in the trace")
        return (times[0], times[-1])

    def position(self, node: int, t: float
                 ) -> Optional[tuple[float, float]]:
        """The node's (x, y) at time ``t``, or ``None`` outside its span."""
        times = self._times.get(node)
        if times is None or t < times[0] or t > times[-1]:
            return None
        points = self._points[node]
        index = bisect.bisect_right(times, t) - 1
        t0, x0, y0 = points[index]
        if t == t0 or index + 1 == len(points):
            return (x0, y0)
        t1, x1, y1 = points[index + 1]
        frac = (t - t0) / (t1 - t0)
        return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))

    def samples(self) -> list[Sample]:
        """All samples, sorted by (time, node) -- the canonical dump order."""
        rows = [(t, node, x, y)
                for node, points in self._points.items()
                for t, x, y in points]
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_model(cls, model, dt: float,
                   horizon_s: Optional[float] = None) -> "MobilityTrace":
        """Sample a motion model every ``dt`` seconds into a trace.

        Round-trips through :meth:`dumps`/:meth:`loads` byte-identically,
        which is how the property tests pin the serialisation format.
        """
        if not (math.isfinite(dt) and dt > 0):
            raise ConfigurationError(
                f"dt must be positive and finite, got {dt!r}")
        if horizon_s is not None and not math.isfinite(horizon_s):
            raise ConfigurationError(
                f"horizon_s must be finite, got {horizon_s!r}")
        horizon = model.horizon_s if horizon_s is None else float(horizon_s)
        rows: list[Sample] = []
        steps = int(horizon / dt + 1e-9)
        for k in range(steps + 1):
            t = min(k * dt, horizon)
            for node in model.nodes:
                xy = model.position(node, t)
                if xy is not None:
                    rows.append((t, node, xy[0], xy[1]))
        return cls(rows)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "MobilityTrace":
        """Load a trace file; the format follows the suffix.

        ``.csv`` parses as CSV, ``.jsonl``/``.ndjson`` as JSON Lines.
        """
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".csv":
            fmt = "csv"
        elif suffix in (".jsonl", ".ndjson"):
            fmt = "jsonl"
        else:
            raise ConfigurationError(
                f"unknown trace suffix {path.suffix!r} "
                "(expected .csv, .jsonl or .ndjson)")
        return cls.loads(path.read_text(), fmt)

    @classmethod
    def loads(cls, text: str, fmt: str) -> "MobilityTrace":
        """Parse trace ``text`` in the named format (``csv``/``jsonl``)."""
        if fmt == "csv":
            reader = csv.DictReader(io.StringIO(text))
            required = {"t", "node", "x", "y"}
            header = set(reader.fieldnames or ())
            if not required <= header:
                raise ConfigurationError(
                    f"CSV trace needs columns {sorted(required)}, "
                    f"got {sorted(header)}")
            try:
                rows = [(float(r["t"]), int(r["node"]),
                         float(r["x"]), float(r["y"])) for r in reader]
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed CSV trace row: {exc}") from None
            return cls(rows)
        if fmt == "jsonl":
            rows = []
            for lineno, line in enumerate(text.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    rows.append((float(record["t"]), int(record["node"]),
                                 float(record["x"]), float(record["y"])))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"malformed JSONL trace line {lineno}: {exc}"
                    ) from None
            return cls(rows)
        raise ConfigurationError(
            f"unknown trace format {fmt!r} (expected 'csv' or 'jsonl')")

    # -- serialisation -----------------------------------------------------

    def dumps(self, fmt: str = "csv") -> str:
        """Serialise to ``csv`` or ``jsonl`` text in canonical sample order."""
        if fmt == "csv":
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["t", "node", "x", "y"])
            for t, node, x, y in self.samples():
                writer.writerow([repr(t), node, repr(x), repr(y)])
            return out.getvalue()
        if fmt == "jsonl":
            lines = [json.dumps({"t": t, "node": node, "x": x, "y": y})
                     for t, node, x, y in self.samples()]
            return "\n".join(lines) + "\n"
        raise ConfigurationError(
            f"unknown trace format {fmt!r} (expected 'csv' or 'jsonl')")

    def dump(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path``; the format follows the suffix."""
        path = Path(path)
        suffix = path.suffix.lower()
        fmt = {"csv": "csv", "jsonl": "jsonl", "ndjson": "jsonl"}.get(
            suffix.lstrip("."))
        if fmt is None:
            raise ConfigurationError(
                f"unknown trace suffix {path.suffix!r} "
                "(expected .csv, .jsonl or .ndjson)")
        path.write_text(self.dumps(fmt))

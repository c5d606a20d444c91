"""Span-stack tracing for the benchmark's traced runs.

The library already opens five spans through :mod:`repro.obs`
(``core.ilp.solve``, ``core.minslots.search``, ``core.zones.solve``,
``core.repair.retarget``, ``sim.engine.run``).  :class:`Tracer` adds the
layer boundaries the library does not instrument yet by wrapping public
entry points from the outside (see ``WRAPS``), and routes both kinds of
span through one stack so that self time is exact: a span's self time is
its duration minus the time its direct children covered, so nested
callbacks (a DCF send inside the event loop inside a scenario run) are
never counted twice.

Nothing here is active unless :meth:`Tracer.install` was called; the
untraced runs that produce the end-to-end metrics never import a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import time

from repro import obs

# (module, attribute path, span name): each attribute is replaced by a
# wrapper that opens the span around the call.  Module-level functions are
# patched at the name the caller binds, so a function imported into several
# modules is listed once per binding.
WRAPS = (
    ("repro.core.engine", "SolverEngine.conflict_index",
     "core.engine.conflict_index"),
    ("repro.core.engine", "SolverEngine.solve", "core.engine.solve"),
    ("repro.core.engine", "conflict_graph", "core.engine.conflict_graph"),
    ("repro.core.engine", "updated_conflict_edges",
     "core.engine.updated_conflict_edges"),
    ("repro.core.ordering", "schedule_from_order",
     "core.ordering.schedule_from_order"),
    ("repro.core.engine", "schedule_from_order",
     "core.ordering.schedule_from_order"),
    ("repro.core.repair", "schedule_from_order",
     "core.ordering.schedule_from_order"),
    ("repro.core.repair", "RepairEngine.retarget", "core.repair.engine"),
    ("repro.faults.injector", "FaultInjector.apply", "faults.apply"),
    ("repro.mobility.stream", "TopologyStream.fault_plan",
     "mobility.fault_plan"),
    ("repro.phy.channel", "BroadcastChannel.transmit",
     "phy.channel.transmit"),
    ("repro.dot11.dcf", "DcfMac.send", "dot11.dcf.send"),
    ("repro.dot11.dcf", "DcfMac.on_receive", "dot11.dcf.on_receive"),
    ("repro.overlay.emulation", "TdmaOverlay.transmit",
     "overlay.transmit"),
    ("repro.net.forwarding", "SourceRoutedForwarder.packet_arrived",
     "net.forwarding.packet_arrived"),
)

#: spans whose every duration is kept, for a median; the others keep
#: aggregates only (the channel and MAC spans fire ~10^4 times a pass)
SAMPLED = frozenset({"core.ilp.solve"})


class SpanStat:
    """Calls, inclusive time and self time of one span name."""

    __slots__ = ("calls", "total_s", "self_s", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.samples: list[float] = []


class Tracer:
    """One span stack, fed by wrapped entry points and by ``repro.obs``.

    Statistics are kept per *phase* -- the label of the benchmark
    operation running (``"tdma"``/``"dcf"`` for the two MAC arms), or
    ``"main"`` outside one -- and so are the deltas of the ``repro.obs``
    counters, which the tracer's registry collects while installed.
    """

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._phase = "main"
        self.phases: dict[str, dict[str, SpanStat]] = {}
        self.counters: dict[str, dict[str, int]] = {}
        #: links covered by the cold conflict-graph builds
        self.built_links = 0
        self.registry = _StackRegistry(self)
        self._saved: list[tuple[object, str, object]] = []
        self._previous_registry = None

    # -- span stack ---------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        ended = time.perf_counter()
        name, started, child_s = self._stack.pop()
        duration = ended - started
        stats = self.phases.setdefault(self._phase, {})
        stat = stats.get(name)
        if stat is None:
            stat = stats[name] = SpanStat()
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - child_s
        if name in SAMPLED:
            stat.samples.append(duration)
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    # -- phases -------------------------------------------------------------

    def phase(self, name: str) -> "_Phase":
        """Attribute spans and counter deltas inside the block to ``name``."""
        return _Phase(self, name)

    def _counter_values(self) -> dict[str, int]:
        return self.registry.snapshot()["counters"]

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every ``WRAPS`` entry and make the registry current."""
        for module_name, path, span_name in WRAPS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrapper = (_wrap_build(self, span_name, original)
                       if span_name == "core.engine.conflict_graph"
                       else _wrap(self, span_name, original))
            setattr(owner, attr, wrapper)
        self._previous_registry = obs.set_registry(self.registry)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and the previous registry."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        obs.set_registry(self._previous_registry)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- readout ------------------------------------------------------------

    def stat(self, name: str, phase: str | None = None) -> SpanStat:
        """The stat of ``name`` in one phase, or summed over all phases."""
        phases = [phase] if phase is not None else list(self.phases)
        merged = SpanStat()
        for key in phases:
            stat = self.phases.get(key, {}).get(name)
            if stat is not None:
                merged.calls += stat.calls
                merged.total_s += stat.total_s
                merged.self_s += stat.self_s
                merged.samples.extend(stat.samples)
        return merged

    def counter(self, name: str, phase: str | None = None) -> int:
        if phase is None:
            return self._counter_values().get(name, 0)
        return self.counters.get(phase, {}).get(name, 0)

    def self_total_s(self) -> float:
        """Self time summed over every span: the wall time spans cover."""
        return sum(stat.self_s for stats in self.phases.values()
                   for stat in stats.values())

    def logical_counters(self) -> dict[str, int]:
        """Deterministic counts: obs counters, histogram sizes, span calls."""
        snap = self.registry.snapshot()
        counts = {f"counter.{name}": value
                  for name, value in snap["counters"].items()}
        counts.update({f"histogram.{name}": h["count"]
                       for name, h in snap["histograms"].items()})
        names = sorted({n for stats in self.phases.values() for n in stats})
        counts.update({f"calls.{name}": self.stat(name).calls
                       for name in names})
        return counts


class _Span:
    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._tracer.enter(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.exit()


class _Phase:
    __slots__ = ("_tracer", "_name", "_outer", "_before")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Phase":
        self._outer = self._tracer._phase
        self._tracer._phase = self._name
        self._before = self._tracer._counter_values()
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        after = tracer._counter_values()
        counts = tracer.counters.setdefault(self._name, {})
        for name, value in after.items():
            delta = value - self._before.get(name, 0)
            if delta:
                counts[name] = counts.get(name, 0) + delta
        tracer._phase = self._outer


class _StackRegistry(obs.MetricsRegistry):
    """A registry whose spans go through the tracer's stack."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(enabled=True)
        self._tracer = tracer

    def span(self, name, **attrs):
        return _Span(self._tracer, name)


def _wrap(tracer: Tracer, name: str, function):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


def _wrap_build(tracer: Tracer, name: str, function):
    """Like :func:`_wrap`, also counting the links the build covers."""
    traced = _wrap(tracer, name, function)

    @functools.wraps(function)
    def counted(topology, *args, **kwargs):
        links = kwargs.get("links")
        tracer.built_links += len(topology.links if links is None
                                  else links)
        return traced(topology, *args, **kwargs)

    return counted

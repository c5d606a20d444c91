"""Discrete-event simulation kernel.

The kernel is intentionally minimal: a priority queue of timestamped
callbacks and a virtual clock.  Protocol entities (MACs, traffic sources,
synchronization daemons) are plain Python objects that schedule callbacks on
a shared :class:`Simulator`.

Determinism
-----------
Events with equal timestamps are executed in scheduling order (a
monotonically increasing sequence number breaks ties), so a simulation with
the same seed always produces the same trace.  This matters for the
reproducibility claims in EXPERIMENTS.md.  The heap holds ``(time, seq,
event)`` tuples: ``seq`` is unique, so ``heapq`` orders entries by
comparing two floats and two ints in C and never reaches the event.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro import obs
from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and can be cancelled
    with :meth:`cancel`.  Cancellation is lazy: the event stays in the heap
    but is skipped when popped, which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_owner",
                 "_popped")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 owner: Optional["Simulator"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner = owner
        self._popped = False

    def cancel(self) -> None:
        """Prevent this event from firing; safe to call more than once."""
        if not self.cancelled and not self._popped and self._owner is not None:
            self._owner._note_cancelled()
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.9f}, {name}, {state})"


class Simulator:
    """Event queue plus virtual clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._executed = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._executed

    @property
    def pending(self) -> int:
        """Number of events still queued and able to fire.

        Cancellation is lazy (cancelled events stay in the heap until
        popped), but the live count is maintained eagerly, so this never
        over-reports by counting corpses.
        """
        return self._live

    def _note_cancelled(self) -> None:
        """First effective cancel of a still-queued event."""
        self._live -= 1

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule *callback(*args)* to run ``delay`` seconds from now.

        ``delay`` must be non-negative and finite; a zero delay runs the
        callback after all events already scheduled for the current instant.
        """
        time = self._now + delay
        if not (delay >= 0.0 and time < math.inf):
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule in the past (delay={delay})")
            return self.schedule_at(time, callback, *args)
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule *callback(*args)* at absolute simulated ``time``."""
        if not self._now <= time < math.inf:
            if not math.isfinite(time):
                raise SimulationError(
                    f"event time must be finite, got {time}")
            raise SimulationError(
                f"cannot schedule at t={time} before current time {self._now}")
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Execute events in timestamp order.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            ``until`` and advance the clock to ``until``.  Events scheduled
            exactly at ``until`` are executed.  Must be finite, like any
            event time; omit it to run until the queue drains.
        max_events:
            Safety valve against runaway event loops; raises
            :class:`SimulationError` when exceeded.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and not math.isfinite(until):
            raise SimulationError(f"event time must be finite, got {until}")
        self._running = True
        executed_this_run = 0
        # Per-event registry calls would dominate the dispatch loop, so the
        # run is accounted for once, after the loop, from local counters.
        started_at = self._now
        queue = self._queue
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        try:
            with obs.span("sim.engine.run"):
                while queue:
                    if queue[0][0] > horizon:
                        break
                    time, ____, event = heappop(queue)
                    event._popped = True
                    if event.cancelled:
                        continue
                    self._live -= 1
                    if executed_this_run >= budget:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "likely a runaway event loop")
                    self._now = time
                    event.callback(*event.args)
                    self._executed += 1
                    executed_this_run += 1
        finally:
            self._running = False
            obs.counter("sim.engine.runs").inc()
            obs.counter("sim.engine.events").inc(executed_this_run)
            obs.histogram("sim.engine.events_per_run").observe(
                executed_this_run)
            ended_at = self._now if until is None else max(self._now, until)
            obs.gauge("sim.engine.virtual_time_s").set(ended_at - started_at)
        if until is not None and until > self._now:
            self._now = until

    def step(self) -> bool:
        """Execute exactly one (non-cancelled) event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        Executed events feed the same ``sim.engine.events`` counter as
        :meth:`run`, so event accounting does not depend on how the
        simulation is driven; ``sim.engine.steps`` counts the step calls
        themselves.
        """
        obs.counter("sim.engine.steps").inc()
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            event._popped = True
            if event.cancelled:
                continue
            self._live -= 1
            self._now = event.time
            event.callback(*event.args)
            self._executed += 1
            obs.counter("sim.engine.events").inc()
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)[2]._popped = True
        return self._queue[0][0] if self._queue else None

"""Discrete-event kernel behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.pending == 0


def test_schedule_and_run(sim):
    fired = []
    sim.schedule(1.5, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 1.5


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(2.0, order.append, "late")
    sim.schedule(1.0, order.append, "early")
    sim.schedule(1.5, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_equal_timestamps_fifo(sim):
    order = []
    for label in "abcde":
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_zero_delay_runs_after_current_instant_events(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_non_finite_time_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule_at(float("inf"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)


@pytest.mark.parametrize("until", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_horizon_rejected(sim, until):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    with pytest.raises(SimulationError, match="event time must be finite"):
        sim.run(until=until)
    # nothing ran, the clock did not move and the kernel is still usable
    assert fired == [] and sim.now == 0.0 and sim.pending == 1
    sim.run(until=2.0)
    assert fired == ["a"] and sim.now == 2.0
    sim.schedule(1.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b"]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_run_until_stops_and_advances_clock(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=3.0)
    assert fired == ["a"]
    assert sim.now == 3.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_includes_boundary_events(sim):
    fired = []
    sim.schedule(2.0, fired.append, "exact")
    sim.run(until=2.0)
    assert fired == ["exact"]


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_max_events_guard(sim):
    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_run_not_reentrant(sim):
    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError, match="reentrant"):
        sim.run()


def test_step_executes_one_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert fired == ["a", "b"]
    assert sim.step() is False


def test_step_skips_cancelled(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    event.cancel()
    assert sim.step() is True
    assert fired == ["b"]


def test_peek_time(sim):
    assert sim.peek_time() is None
    event = sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    assert sim.peek_time() == 2.0
    event.cancel()
    assert sim.peek_time() == 3.0


def test_events_executed_counter(sim):
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    cancelled = sim.schedule(10.0, lambda: None)
    cancelled.cancel()
    sim.run()
    assert sim.events_executed == 5


def test_determinism_across_instances():
    def run_once():
        sim = Simulator()
        log = []
        for i in range(10):
            sim.schedule(1.0, log.append, i)
        sim.run()
        return log

    assert run_once() == run_once()


# -- pending vs lazy cancellation ----------------------------------------


def test_pending_excludes_cancelled_events(sim):
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    assert sim.pending == 4
    events[1].cancel()
    assert sim.pending == 3
    # idempotent: a second cancel must not double-count
    events[1].cancel()
    assert sim.pending == 3
    events[2].cancel()
    assert sim.pending == 2


def test_pending_drains_to_zero(sim):
    sim.schedule(1.0, lambda: None)
    doomed = sim.schedule(2.0, lambda: None)
    doomed.cancel()
    sim.schedule(3.0, lambda: None)
    assert sim.pending == 2
    sim.run()
    assert sim.pending == 0


def test_pending_tracks_step_and_peek(sim):
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.peek_time() == 2.0  # drops the cancelled corpse
    assert sim.pending == 1
    assert sim.step() is True
    assert sim.pending == 0


def test_cancel_after_fire_does_not_corrupt_pending(sim):
    fired = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert sim.pending == 1
    fired.cancel()  # already executed: must be a no-op for the count
    assert sim.pending == 1


def test_step_updates_obs_counters():
    from repro import obs

    reg = obs.MetricsRegistry()
    previous = obs.set_registry(reg)
    try:
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(2.0, lambda: None)
        cancelled.cancel()
        sim.schedule(3.0, lambda: None)
        while sim.step():
            pass
        snap = reg.snapshot()
        assert snap["counters"]["sim.engine.events"] == 2
        # final call returned False but still counts as a step
        assert snap["counters"]["sim.engine.steps"] == 3
    finally:
        obs.set_registry(previous)


def test_run_and_step_count_events_identically():
    from repro import obs

    def drive(stepwise: bool) -> int:
        reg = obs.MetricsRegistry()
        previous = obs.set_registry(reg)
        try:
            sim = Simulator()
            for i in range(5):
                sim.schedule(float(i + 1), lambda: None)
            if stepwise:
                while sim.step():
                    pass
            else:
                sim.run()
            return reg.snapshot()["counters"]["sim.engine.events"]
        finally:
            obs.set_registry(previous)

    assert drive(stepwise=True) == drive(stepwise=False) == 5


_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])
_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["schedule", "schedule_at", "run"]), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.sampled_from(["step", "peek"]), st.none())),
    max_size=80)


@settings(max_examples=300, deadline=None)
@given(ops=_OPS)
def test_random_interleavings_match_a_sorted_list_oracle(ops):
    """Callbacks fire in (time, seq) order under any mix of scheduling,
    cancellation, stepping and bounded runs -- including cancelled events
    sitting at the head of the heap -- and ``pending``/``peek_time``
    agree with a sorted list of the live events."""
    sim = Simulator()
    fired, expected = [], []
    handles = []
    live = []  # (time, label); labels grow in scheduling order, like seq
    now = 0.0
    for op, arg in ops:
        if op in ("schedule", "schedule_at"):
            label = len(handles)
            if op == "schedule":
                handles.append(sim.schedule(arg, fired.append, label))
            else:
                handles.append(sim.schedule_at(now + arg, fired.append,
                                               label))
            live.append((now + arg, label))
        elif op == "cancel":
            if handles:
                label = arg % len(handles)
                handles[label].cancel()
                live = [entry for entry in live if entry[1] != label]
        elif op == "step":
            assert sim.step() is bool(live)
            if live:
                head = min(live)
                live.remove(head)
                now = head[0]
                expected.append(head[1])
        elif op == "run":
            until = now + arg
            sim.run(until=until)
            due = sorted(entry for entry in live if entry[0] <= until)
            expected.extend(label for ____, label in due)
            live = [entry for entry in live if entry[0] > until]
            now = until
        else:
            assert sim.peek_time() == (min(live)[0] if live else None)
        assert fired == expected
        assert sim.now == now
        assert sim.pending == len(live)
    sim.run()
    assert fired == expected + [label for ____, label in sorted(live)]
    assert sim.pending == 0 and sim.peek_time() is None

"""Trace recording."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.trace import Trace, TraceRecord


def test_emit_and_count():
    trace = Trace()
    trace.emit(1.0, "mac.tx", node=3)
    trace.emit(2.0, "mac.tx", node=4)
    trace.emit(3.0, "mac.rx")
    assert trace.count("mac.tx") == 2
    assert trace.count("mac.rx") == 1
    assert trace.count("nothing") == 0


def test_records_filtered_by_category():
    trace = Trace()
    trace.emit(1.0, "a", value=1)
    trace.emit(2.0, "b", value=2)
    trace.emit(3.0, "a", value=3)
    values = [r["value"] for r in trace.records("a")]
    assert values == [1, 3]


def test_record_field_access():
    trace = Trace()
    trace.emit(1.0, "x", foo="bar")
    record = trace.last()
    assert record.time == 1.0
    assert record.category == "x"
    assert record["foo"] == "bar"


def test_last_with_category():
    trace = Trace()
    trace.emit(1.0, "a", value=1)
    trace.emit(2.0, "b", value=2)
    assert trace.last("a")["value"] == 1
    assert trace.last("b")["value"] == 2
    assert trace.last("c") is None


def test_capacity_bounds_records_but_not_counts():
    trace = Trace(capacity=3)
    for i in range(10):
        trace.emit(float(i), "e", index=i)
    assert len(trace) == 3
    assert trace.count("e") == 10
    assert [r["index"] for r in trace.records("e")] == [7, 8, 9]


def test_disabled_trace_is_noop():
    trace = Trace(enabled=False)
    trace.emit(1.0, "x")
    assert len(trace) == 0
    assert trace.count("x") == 0


def test_categories_sorted():
    trace = Trace()
    trace.emit(1.0, "zeta")
    trace.emit(1.0, "alpha")
    assert trace.categories() == ["alpha", "zeta"]


def test_times():
    trace = Trace()
    trace.emit(1.0, "a")
    trace.emit(2.5, "a")
    trace.emit(2.7, "b")
    assert trace.times("a") == [1.0, 2.5]


def test_extend_counts():
    trace = Trace()
    trace.emit(1.0, "a")
    trace.extend_counts([("a", 5), ("b", 2)])
    assert trace.count("a") == 6
    assert trace.count("b") == 2


def test_reads_build_equal_fresh_records():
    trace = Trace()
    trace.emit(1.0, "a", value=1)
    trace.emit(2.0, "b")
    expected = [TraceRecord(1.0, "a", {"value": 1}), TraceRecord(2.0, "b")]
    first = list(trace.records())
    assert first == expected == list(trace.records())
    assert first[0] is not next(trace.records())
    assert trace.last() == expected[-1]
    assert trace.last("a") == expected[0]


@pytest.mark.parametrize("capacity", [None, 0, 1, 5])
def test_capacity_accepts_none_or_a_non_negative_int(capacity):
    trace = Trace(capacity=capacity)
    for i in range(3):
        trace.emit(float(i), "e")
    assert len(trace) == (3 if capacity is None else min(capacity, 3))
    assert trace.count("e") == 3


@pytest.mark.parametrize("capacity", [-1, 1.5, True, False, "3", 2.0])
def test_capacity_rejects_anything_else(capacity):
    with pytest.raises(ConfigurationError, match="capacity"):
        Trace(capacity=capacity)

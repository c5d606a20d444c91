"""Unit tests for repro.mobility.trace: replayed position timelines."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.mobility.models import ConstantVelocityModel, RandomWaypointModel
from repro.mobility.trace import MobilityTrace


def square_trace():
    return MobilityTrace([
        (0.0, 0, 0.0, 0.0), (10.0, 0, 100.0, 0.0),
        (0.0, 1, 50.0, 50.0), (10.0, 1, 50.0, 50.0),
        (5.0, 2, 10.0, 10.0), (8.0, 2, 40.0, 10.0),
    ])


def test_trace_interpolates_linearly_between_samples():
    trace = square_trace()
    assert trace.position(0, 5.0) == (50.0, 0.0)
    assert trace.position(2, 6.5) == (25.0, 10.0)


def test_trace_nodes_and_horizon():
    trace = square_trace()
    assert trace.nodes == (0, 1, 2)
    assert trace.horizon_s == 10.0
    assert trace.span(2) == (5.0, 8.0)
    with pytest.raises(ConfigurationError):
        trace.span(9)


def test_trace_absence_outside_span_expresses_join_and_leave():
    trace = square_trace()
    assert trace.position(2, 4.9) is None      # joins at t=5
    assert trace.position(2, 8.1) is None      # leaves at t=8
    assert trace.position(2, 5.0) == (10.0, 10.0)
    assert trace.position(9, 1.0) is None


def test_trace_rejects_empty_duplicate_and_negative_samples():
    with pytest.raises(ConfigurationError):
        MobilityTrace([])
    with pytest.raises(ConfigurationError):
        MobilityTrace([(1.0, 0, 0.0, 0.0), (1.0, 0, 5.0, 5.0)])
    with pytest.raises(ConfigurationError):
        MobilityTrace([(-1.0, 0, 0.0, 0.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["t", "x", "y"])
def test_trace_rejects_non_finite_samples(field, bad):
    # a NaN coordinate would replay as a present node that never links
    sample = {"t": 1.0, "x": 0.0, "y": 0.0, field: bad}
    rows = [(0.0, 0, 0.0, 0.0),
            (sample["t"], 0, sample["x"], sample["y"])]
    with pytest.raises(ConfigurationError, match="not finite"):
        MobilityTrace(rows)
    text = "t,node,x,y\n" + "\n".join(
        f"{t!r},{node},{x!r},{y!r}" for t, node, x, y in rows) + "\n"
    with pytest.raises(ConfigurationError, match="not finite"):
        MobilityTrace.loads(text, "csv")


def test_trace_samples_in_canonical_order():
    trace = square_trace()
    rows = trace.samples()
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_trace_round_trips_byte_identically(fmt):
    model = RandomWaypointModel(5, 300.0, 8.0, 20.0, seed=13)
    trace = MobilityTrace.from_model(model, dt=2.5)
    text = trace.dumps(fmt)
    again = MobilityTrace.loads(text, fmt)
    assert again.dumps(fmt) == text
    assert again.samples() == trace.samples()


def test_trace_from_model_matches_model_positions():
    model = ConstantVelocityModel({0: (0.0, 0.0)}, {0: (2.0, 0.0)}, 10.0)
    trace = MobilityTrace.from_model(model, dt=1.0)
    assert trace.position(0, 3.0) == model.position(0, 3.0)
    # linear motion interpolates exactly even between samples
    assert trace.position(0, 3.5) == model.position(0, 3.5)


@pytest.mark.parametrize("argument, kwargs", [
    ("dt", {"dt": math.nan}),
    ("dt", {"dt": math.inf}),
    ("horizon_s", {"dt": 1.0, "horizon_s": math.nan}),
    ("horizon_s", {"dt": 1.0, "horizon_s": math.inf}),
], ids=["dt-nan", "dt-inf", "horizon-nan", "horizon-inf"])
def test_trace_from_model_rejects_non_finite_sampling(argument, kwargs):
    model = ConstantVelocityModel({0: (0.0, 0.0)}, {0: (1.0, 0.0)}, 5.0)
    with pytest.raises(ConfigurationError, match=f"^{argument} must be"):
        MobilityTrace.from_model(model, **kwargs)


def test_trace_dump_and_load_follow_the_suffix(tmp_path):
    trace = square_trace()
    for name in ("trace.csv", "trace.jsonl", "trace.ndjson"):
        path = tmp_path / name
        trace.dump(path)
        assert MobilityTrace.load(path).samples() == trace.samples()
    with pytest.raises(ConfigurationError):
        trace.dump(tmp_path / "trace.xml")
    with pytest.raises(ConfigurationError):
        MobilityTrace.load(tmp_path / "trace.xml")


def test_trace_loads_rejects_malformed_input():
    with pytest.raises(ConfigurationError):
        MobilityTrace.loads("a,b\n1,2\n", "csv")
    with pytest.raises(ConfigurationError):
        MobilityTrace.loads("t,node,x,y\n1,zero,3,4\n", "csv")
    with pytest.raises(ConfigurationError):
        MobilityTrace.loads('{"t": 1, "node": 0}\n', "jsonl")
    with pytest.raises(ConfigurationError):
        MobilityTrace.loads("t,node,x,y\n", "yaml")
    with pytest.raises(ConfigurationError):
        MobilityTrace.from_model(
            ConstantVelocityModel({0: (0.0, 0.0)}, {0: (0.0, 0.0)}, 5.0),
            dt=0.0)

"""Differential tests: :meth:`TopologyStream.snapshots` against the
scalar pair-by-pair loop kept in :mod:`tests.stream_oracle`.

Every motion source (random waypoint, reflecting constant velocity,
replayed traces with late joins and early leaves) and every radio
hysteresis must give snapshots equal to the oracle's -- times, node
sets and edge sets, each set in the same iteration order -- and the
same first-seen positions.  Layouts that put pairs exactly on, or
within an ulp of, the three thresholds (``R``, ``R*(1+h)``,
``R*(1-h)``) pin the boundary decisions, where a distance rounded
differently would flip a link.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import stream as stream_module
from repro.mobility.models import ConstantVelocityModel, RandomWaypointModel
from repro.mobility.stream import RadioRangeModel, TopologyStream
from repro.mobility.trace import MobilityTrace
from tests.stream_oracle import assert_same_snapshots

hysteresis = st.floats(min_value=0.0, max_value=0.5, exclude_max=True)
ranges = st.floats(min_value=20.0, max_value=400.0)


@given(seed=st.integers(min_value=0, max_value=10_000),
       num_nodes=st.integers(min_value=1, max_value=12),
       area=st.floats(min_value=50.0, max_value=800.0),
       speed=st.one_of(st.just(0.0),
                       st.floats(min_value=0.5, max_value=30.0),
                       st.tuples(st.floats(min_value=0.0, max_value=5.0),
                                 st.floats(min_value=5.0, max_value=30.0))),
       pause=st.sampled_from([0.0, 0.7, 2.0]),
       horizon=st.floats(min_value=1.0, max_value=12.0),
       dt=st.sampled_from([0.25, 0.5, 1.0, 1.3]),
       range_m=ranges, h=hysteresis)
@settings(max_examples=60, deadline=None)
def test_random_waypoint_snapshots_match_the_scalar_loop(
        seed, num_nodes, area, speed, pause, horizon, dt, range_m, h):
    motion = RandomWaypointModel(num_nodes, area, speed, horizon,
                                 pause_s=pause, seed=seed)
    assert_same_snapshots(TopologyStream(
        motion, RadioRangeModel(range_m, hysteresis=h), dt=dt))


@st.composite
def reflecting_motions(draw):
    """A constant-velocity model bouncing off a square field's walls."""
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    area = draw(st.floats(min_value=20.0, max_value=500.0))
    coordinate = st.floats(min_value=0.0, max_value=area)
    velocity = st.floats(min_value=-60.0, max_value=60.0)
    positions = {n: (draw(coordinate), draw(coordinate))
                 for n in range(num_nodes)}
    velocities = {n: (draw(velocity), draw(velocity))
                  for n in range(num_nodes)}
    horizon = draw(st.floats(min_value=1.0, max_value=20.0))
    return ConstantVelocityModel(positions, velocities, horizon, area=area)


@given(motion=reflecting_motions(),
       dt=st.sampled_from([0.25, 0.5, 1.0, 2.5]),
       range_m=ranges, h=hysteresis)
@settings(max_examples=60, deadline=None)
def test_reflecting_constant_velocity_snapshots_match_the_scalar_loop(
        motion, dt, range_m, h):
    assert_same_snapshots(TopologyStream(
        motion, RadioRangeModel(range_m, hysteresis=h), dt=dt))


@st.composite
def joining_traces(draw):
    """A trace whose nodes join late and leave early.

    Each node is sampled on whole seconds of its own ``[first, last]``
    span (some spans a single sample), with gaps; sampling every half
    second then also reads interpolated positions.
    """
    horizon = draw(st.integers(min_value=1, max_value=10))
    coordinate = st.floats(min_value=0.0, max_value=300.0)
    ids = draw(st.lists(st.integers(min_value=0, max_value=40),
                        min_size=1, max_size=9, unique=True))
    samples = []
    for node in ids:
        first = draw(st.integers(min_value=0, max_value=horizon))
        last = draw(st.integers(min_value=first, max_value=horizon))
        times = [first, last] + draw(st.lists(
            st.integers(min_value=first, max_value=last), max_size=6))
        for t in sorted(set(times)):
            samples.append((float(t), node, draw(coordinate),
                            draw(coordinate)))
    return MobilityTrace(samples)


@given(trace=joining_traces(), dt=st.sampled_from([0.5, 1.0]),
       range_m=ranges, h=hysteresis)
@settings(max_examples=60, deadline=None)
def test_trace_with_joins_and_leaves_matches_the_scalar_loop(
        trace, dt, range_m, h):
    stream = TopologyStream(trace, RadioRangeModel(range_m, hysteresis=h),
                            dt=dt)
    assert_same_snapshots(stream)


def _thresholds(range_m, h):
    return (range_m, range_m * (1.0 + h), range_m * (1.0 - h))


@st.composite
def boundary_traces(draw):
    """Axis-aligned layouts at exactly a threshold distance.

    Node 0 sits at the origin; at every whole second each other node
    sits on an axis at one of ``R``, ``R*(1+h)`` or ``R*(1-h)`` -- or
    one ulp either side -- so its link to node 0 is decided exactly on a
    boundary, by the disk rule at t=0 and by hysteresis after.
    """
    range_m = draw(st.sampled_from([100.0, 150.3, 220.0, 0.1 + 0.2]))
    h = draw(hysteresis)
    horizon = draw(st.integers(min_value=1, max_value=8))
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    samples = [(float(t), 0, 0.0, 0.0) for t in range(horizon + 1)]
    for node in range(1, num_nodes):
        for t in range(horizon + 1):
            d = draw(st.sampled_from(_thresholds(range_m, h)))
            d = draw(st.sampled_from([d, math.nextafter(d, 0.0),
                                      math.nextafter(d, math.inf)]))
            sign = draw(st.sampled_from([1.0, -1.0]))
            xy = (sign * d, 0.0) if draw(st.booleans()) else (0.0, sign * d)
            samples.append((float(t), node, *xy))
    return MobilityTrace(samples), RadioRangeModel(range_m, hysteresis=h)


@given(case=boundary_traces())
@settings(max_examples=80, deadline=None)
def test_threshold_distances_decide_as_the_scalar_loop(case):
    trace, radio = case
    assert_same_snapshots(TopologyStream(trace, radio, dt=1.0))


def _straddling_offsets(threshold, count, rng):
    """``(dx, dy)`` offsets whose distance ``np.hypot`` and
    ``math.hypot`` put on opposite sides of ``threshold``."""
    found = []
    while len(found) < count:
        angle = rng.uniform(0.0, math.pi / 2)
        dx, dy = threshold * math.cos(angle), threshold * math.sin(angle)
        if ((math.hypot(dx, dy) <= threshold)
                != (float(np.hypot(dx, dy)) <= threshold)):
            found.append((dx, dy))
    return found


def test_distances_rounded_differently_by_numpy_decide_as_math_hypot():
    # Pairs whose two hypot roundings straddle a threshold: the only
    # place a batched distance could flip a link.  Node 0 sits at the
    # origin and each other node, at every sample, at such an offset
    # from it for the disk rule (t=0) or one of the hysteresis
    # thresholds (later samples, whatever the link's state).
    rng = random.Random(5)
    radio = RadioRangeModel(220.0, hysteresis=0.15)
    nominal, keep, form = _thresholds(radio.range_m, radio.hysteresis)
    samples = [(float(t), 0, 0.0, 0.0) for t in range(7)]
    for node in range(1, 9):
        later = (_straddling_offsets(keep, 3, rng)
                 + _straddling_offsets(form, 3, rng))
        rng.shuffle(later)
        offsets = _straddling_offsets(nominal, 1, rng) + later
        samples += [(float(t), node, *xy) for t, xy in enumerate(offsets)]
    stream = TopologyStream(MobilityTrace(samples), radio, dt=1.0)
    assert_same_snapshots(stream)
    assert any(edges for _, _, edges in stream.snapshots())


@pytest.mark.parametrize("budget", [1, 200, 1_000])
def test_a_sweep_split_into_blocks_matches_the_scalar_loop(monkeypatch,
                                                           budget):
    # 66 pairs: blocks of 1, 3 and 15 samples, so the hysteresis state
    # crosses block boundaries
    monkeypatch.setattr(stream_module, "_SWEEP_PAIR_SAMPLES", budget)
    motion = RandomWaypointModel(12, 300.0, 15.0, 10.0, seed=3)
    stream = TopologyStream(motion, RadioRangeModel(90.0, hysteresis=0.2),
                            dt=0.25)
    assert_same_snapshots(stream)
    assert len({edges for _, _, edges in stream.snapshots()}) > 5

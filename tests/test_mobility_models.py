"""Unit tests for repro.mobility.models: seeded, reproducible motion."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.mobility.models import (
    ConstantVelocityModel,
    RandomWaypointModel,
    _fold,
)
from repro.net.topology import grid_topology, random_disk_topology


# -- random waypoint -------------------------------------------------------


def test_rwp_same_seed_walks_identical_paths():
    a = RandomWaypointModel(6, 500.0, 12.0, 60.0, seed=7)
    b = RandomWaypointModel(6, 500.0, 12.0, 60.0, seed=7)
    for node in a.nodes:
        for t in (0.0, 1.5, 17.25, 60.0):
            assert a.position(node, t) == b.position(node, t)


def test_rwp_different_seeds_diverge():
    a = RandomWaypointModel(6, 500.0, 12.0, 60.0, seed=7)
    b = RandomWaypointModel(6, 500.0, 12.0, 60.0, seed=8)
    assert any(a.position(n, 10.0) != b.position(n, 10.0)
               for n in a.nodes)


def test_rwp_start_layout_independent_of_speed():
    # every start is drawn before any leg, so t=0 depends only on
    # seed and node count -- the E20 sweep's arms share one layout
    slow = RandomWaypointModel(8, 400.0, 1.0, 30.0, seed=3)
    fast = RandomWaypointModel(8, 400.0, 30.0, 30.0, seed=3)
    for node in slow.nodes:
        assert slow.position(node, 0.0) == fast.position(node, 0.0)


def test_rwp_zero_speed_is_static():
    model = RandomWaypointModel(4, 300.0, 0.0, 45.0, seed=1)
    for node in model.nodes:
        assert model.position(node, 0.0) == model.position(node, 45.0)


def test_rwp_positions_stay_inside_field():
    model = RandomWaypointModel(5, 250.0, (5.0, 20.0), 90.0, seed=11)
    for node in model.nodes:
        for k in range(0, 91, 3):
            x, y = model.position(node, float(k))
            assert 0.0 <= x <= 250.0 and 0.0 <= y <= 250.0


def test_rwp_speed_actually_bounds_displacement():
    model = RandomWaypointModel(4, 800.0, 10.0, 60.0, seed=5)
    for node in model.nodes:
        x0, y0 = model.position(node, 20.0)
        x1, y1 = model.position(node, 21.0)
        assert math.hypot(x1 - x0, y1 - y0) <= 10.0 + 1e-9


def test_rwp_pause_holds_position_between_legs():
    model = RandomWaypointModel(1, 100.0, 50.0, 120.0, pause_s=5.0, seed=2)
    legs = model._segments[0]
    pauses = [s for s in legs if s[2] == s[3] and s[1] - s[0] == 5.0]
    assert pauses, "a 50 m/s node on a 100 m field must pause mid-horizon"


def test_rwp_absent_before_zero_and_unknown_node():
    model = RandomWaypointModel(3, 100.0, 5.0, 10.0, seed=0)
    assert model.position(0, -0.5) is None
    assert model.position(99, 1.0) is None


def test_rwp_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        RandomWaypointModel(0, 100.0, 5.0, 10.0, seed=0)
    with pytest.raises(ConfigurationError):
        RandomWaypointModel(3, -1.0, 5.0, 10.0, seed=0)
    with pytest.raises(ConfigurationError):
        RandomWaypointModel(3, 100.0, (8.0, 2.0), 10.0, seed=0)
    with pytest.raises(ConfigurationError):
        RandomWaypointModel(3, 100.0, 5.0, 0.0, seed=0)
    with pytest.raises(ConfigurationError):
        RandomWaypointModel(3, 100.0, 5.0, 10.0, pause_s=-1.0, seed=0)


@pytest.mark.parametrize("area, horizon_s", [
    (math.nan, 10.0), (math.inf, 10.0), (100.0, math.nan),
    (100.0, math.inf),
], ids=["area-nan", "area-inf", "horizon-nan", "horizon-inf"])
def test_rwp_rejects_non_finite_field_and_horizon(area, horizon_s):
    """An infinite horizon would draw legs forever; NaN was accepted."""
    with pytest.raises(ConfigurationError, match="finite"):
        RandomWaypointModel(3, area, 5.0, horizon_s, seed=0)


@pytest.mark.parametrize("speed_mps, pause_s", [
    (math.nan, 0.0), ((math.nan, 5.0), 0.0), ((1.0, math.nan), 0.0),
    ((1.0, math.inf), 0.0), (math.inf, 0.0), (5.0, math.nan),
    (5.0, math.inf),
], ids=["speed-nan", "low-nan", "high-nan", "high-inf", "speed-inf",
        "pause-nan", "pause-inf"])
def test_rwp_rejects_non_finite_speed_and_pause(speed_mps, pause_s):
    """NaN built a static layout; infinity overflowed or never finished."""
    with pytest.raises(ConfigurationError, match="finite"):
        RandomWaypointModel(3, 100.0, speed_mps, 10.0, pause_s=pause_s,
                            seed=0)


def test_rwp_from_topology_seeds_from_real_layout():
    topology = random_disk_topology(8, radio_range=180.0, area=400.0,
                                    seed=21)
    model = RandomWaypointModel.from_topology(topology, 10.0, 30.0, seed=4)
    assert model.nodes == tuple(topology.nodes)
    for node in model.nodes:
        assert model.position(node, 0.0) == topology.position(node)


def test_rwp_from_topology_requires_positions():
    topology = grid_topology(2, 2)
    topology.positions.clear()
    with pytest.raises(ConfigurationError):
        RandomWaypointModel.from_topology(topology, 5.0, 10.0, seed=0)


# -- constant velocity -----------------------------------------------------


def test_fold_reflects_like_billiard_walls():
    assert _fold(30.0, 100.0) == 30.0
    assert _fold(130.0, 100.0) == 70.0
    assert _fold(230.0, 100.0) == 30.0
    assert _fold(-30.0, 100.0) == 30.0


def test_constant_velocity_straight_line():
    model = ConstantVelocityModel({0: (0.0, 0.0)}, {0: (3.0, 4.0)}, 10.0)
    assert model.position(0, 2.0) == (6.0, 8.0)


def test_constant_velocity_bounces_off_field_walls():
    model = ConstantVelocityModel({0: (90.0, 50.0)}, {0: (10.0, 0.0)},
                                  10.0, area=100.0)
    x, _ = model.position(0, 3.0)  # would be 120 unbounded
    assert x == 80.0


def test_constant_velocity_absent_outside_horizon():
    model = ConstantVelocityModel({0: (0.0, 0.0)}, {0: (1.0, 0.0)}, 5.0)
    assert model.position(0, 5.5) is None
    assert model.position(1, 1.0) is None


def test_constant_velocity_rejects_missing_velocity():
    with pytest.raises(ConfigurationError):
        ConstantVelocityModel({0: (0.0, 0.0), 1: (1.0, 1.0)},
                              {0: (1.0, 0.0)}, 10.0)
    with pytest.raises(ConfigurationError):
        ConstantVelocityModel({}, {}, 10.0)
    with pytest.raises(ConfigurationError):
        ConstantVelocityModel({0: (0.0, 0.0)}, {0: (1.0, 0.0)}, 10.0,
                              area=0.0)


@pytest.mark.parametrize("change", [
    {"horizon_s": math.nan}, {"horizon_s": math.inf}, {"area": math.nan},
    {"area": math.inf}, {"positions": {0: (math.nan, 0.0)}},
    {"positions": {0: (0.0, math.inf)}},
    {"velocities": {0: (1.0, math.nan)}},
    {"velocities": {0: (math.inf, 0.0)}},
], ids=["horizon-nan", "horizon-inf", "area-nan", "area-inf",
        "position-nan", "position-inf", "velocity-nan", "velocity-inf"])
def test_constant_velocity_rejects_non_finite_inputs(change):
    """Each of these used to be accepted and played back NaN positions."""
    kwargs = {"positions": {0: (0.0, 0.0)}, "velocities": {0: (1.0, 0.0)},
              "horizon_s": 10.0, **change}
    with pytest.raises(ConfigurationError, match="finite"):
        ConstantVelocityModel(**kwargs)

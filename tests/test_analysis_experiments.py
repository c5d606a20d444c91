"""Experiment harness smoke tests (tiny parameters).

Each experiment runs with scaled-down inputs and must (a) complete, (b)
produce rows matching its headers, and (c) show the qualitative shape the
full benchmark relies on.
"""

import math

import pytest

from repro import obs
from repro.analysis import experiments as ex
from repro.errors import ConfigurationError


def assert_well_formed(result):
    assert result.rows, result.experiment
    for row in result.rows:
        assert len(row) == len(result.headers)
    text = result.table()
    assert result.experiment in text


def test_e01_shape():
    result = ex.e01_min_slots(call_counts=(1, 2))
    assert_well_formed(result)
    slots = [row[2] for row in result.rows]
    assert slots[0] <= slots[1]
    # ILP never needs fewer slots than the lower bound
    for row in result.rows:
        assert row[2] >= row[1]


def test_e02_shape():
    result = ex.e02_delay_vs_hops(hop_counts=(2, 4, 6))
    assert_well_formed(result)
    for row in result.rows:
        hops, ilp_ms, tree_ms, naive_ms, adversarial_ms = row[:5]
        assert ilp_ms <= tree_ms + 1e-9
        assert tree_ms <= adversarial_ms
        assert row[5] == 0  # ilp wraps
    # adversarial grows with hops, ilp stays within one frame (10 ms)
    assert result.rows[-1][4] > result.rows[0][4]
    assert all(row[1] <= 10.0 for row in result.rows)


def test_e03_shape():
    result = ex.e03_delay_vs_frame(frame_durations_ms=(4, 8, 16))
    assert_well_formed(result)
    good = [row[1] for row in result.rows]
    bad = [row[2] for row in result.rows]
    # linear in frame duration
    assert good[1] == pytest.approx(2 * good[0])
    assert bad[2] == pytest.approx(2 * bad[1])
    assert all(b > g for g, b in zip(good, bad))


def test_e04_shape():
    result = ex.e04_overhead(drift_ppms=(10, 50),
                             resync_intervals_s=(0.1, 10.0))
    assert_well_formed(result)
    by_key = {(row[0], row[1]): row for row in result.rows}
    # guard grows with drift and interval
    assert by_key[(50, 10.0)][2] > by_key[(10, 0.1)][2]
    # capacity shrinks correspondingly
    assert by_key[(50, 10.0)][4] < by_key[(10, 0.1)][4]


def test_e07_shape():
    result = ex.e07_ordering_compare()
    assert_well_formed(result)
    for row in result.rows:
        name, flows, ilp, tree, greedy, random_ = row
        assert ilp == 0
        if tree is not None:
            assert tree == 0


def test_e09_shape():
    result = ex.e09_goodput_efficiency(slot_durations_us=(400, 800, 2000))
    assert_well_formed(result)
    efficiency = [row[3] for row in result.rows]
    assert efficiency == sorted(efficiency)
    assert all(0 <= e < 1 for e in efficiency)


def test_e11_shape():
    result = ex.e11_spatial_reuse(chain_lengths=(4, 8, 12))
    assert_well_formed(result)
    slots_2hop = [row[3] for row in result.rows]
    links = [row[1] for row in result.rows]
    # slots saturate while links keep growing
    assert slots_2hop[-1] == slots_2hop[-2]
    assert links[-1] > links[0]
    # 1-hop model needs fewer slots than 2-hop
    for row in result.rows:
        assert row[2] <= row[3]
    # utilization (reuse) grows past 1
    assert result.rows[-1][4] > 1.0


def assert_admitted_by_controller(registry, offered: int) -> None:
    """Every offered call was decided by one min-slot search, no ILP ran,
    and no probe ran out of its node budget, so each rejection is a
    proof."""
    counters = registry.snapshot()["counters"]
    assert counters.get("core.ilp.solves", 0) == 0
    assert counters.get("core.minslots.searches") == offered
    assert "core.minslots.probe_timeouts" not in counters


@pytest.mark.slow
def test_e05_shape():
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        result = ex.e05_voip_capacity(call_counts=(2, 8), duration_s=1.0)
    assert_well_formed(result)
    assert_admitted_by_controller(registry, offered=2 + 8)
    light, heavy = result.rows
    # at light load both stacks carry everything
    assert light[2] == light[0]
    # at heavy load TDMA's admitted calls all meet QoS; DCF's mostly fail
    assert heavy[2] == heavy[1]
    assert heavy[3] < heavy[0]


def test_e05_rejects_a_load_with_no_admitted_call():
    # a one-slot budget no multi-hop call can meet leaves nothing to run
    with pytest.raises(ConfigurationError, match="no flow could be admitted"):
        ex.e05_voip_capacity(call_counts=(1,), duration_s=0.2,
                             delay_target_s=0.001)


@pytest.mark.slow
def test_e06_shape():
    result = ex.e06_delay_cdf(num_calls=4, duration_s=1.5)
    assert_well_formed(result)
    tdma = {row[0]: row[1] for row in result.rows}
    # hard cap: TDMA's max barely exceeds its median (bounded service)
    assert tdma["max"] < 3 * tdma["p50"] + 1.0


@pytest.mark.slow
def test_e08_shape():
    result = ex.e08_sync_error(duration_s=2.5)
    assert_well_formed(result)
    rows = {row[0]: row for row in result.rows}
    assert rows["sync_on"][1] < rows["sync_off"][1]


@pytest.mark.slow
def test_e10_shape():
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        result = ex.e10_solver_scaling(grid_sizes=((2, 2), (3, 3)))
    assert_well_formed(result)
    column = {name: index for index, name in enumerate(result.headers)}
    # the two measured timings come last, after every deterministic column
    assert result.headers[-2:] == ["ilp_seconds", "bf_seconds"]
    small, large = result.rows
    ilp_vars = column["ilp_vars"]
    assert large[ilp_vars] >= small[ilp_vars]  # variables grow with the mesh
    # every search closes between the greedy-clique floor and a packing
    # certificate, so no search pays an ILP probe
    counters = registry.snapshot()["counters"]
    assert counters.get("core.minslots.bounds_closed", 0) > 0
    assert counters.get("core.engine.ilp_probes", 0) == 0
    assert [row[column["probes"]] for row in result.rows] == [1, 1]
    assert [row[column["cold_ilp_solves"]] for row in result.rows] == [0, 0]


@pytest.mark.slow
def test_e12_shape():
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        result = ex.e12_voip_mos(call_counts=(8,), duration_s=1.0)
    assert_well_formed(result)
    assert_admitted_by_controller(registry, offered=8)
    row = result.rows[0]
    assert row[2] > row[3]  # TDMA worst MOS beats DCF worst MOS past knee


@pytest.mark.slow
def test_e13_shape():
    result = ex.e13_channel_errors(error_rates=(0.0, 0.05), duration_s=1.0)
    assert_well_formed(result)
    clean, lossy = result.rows
    assert clean[1] == 0.0
    assert lossy[1] > clean[1]          # TDMA loss grows with channel error
    assert lossy[2] < lossy[1]          # DCF's ARQ absorbs most of it
    assert lossy[5] >= clean[5]         # ...by retrying more


def test_e14_shape():
    result = ex.e14_distributed_vs_centralized()
    assert_well_formed(result)
    for row in result.rows:
        ____, links, central, makespan, served, messages, ____ = row
        assert served == f"{links}/{links}"
        assert messages == 3 * links
        assert makespan <= 2 * central


@pytest.mark.slow
def test_e15_shape():
    result = ex.e15_control_plane(duration_s=1.5)
    assert_well_formed(result)
    for row in result.rows:
        assert row[5] == 0  # no control collisions under either plane
        assert row[6] == 0  # no VoIP loss


def test_e16_shape():
    result = ex.e16_two_class(call_counts=(0, 2, 4))
    assert_well_formed(result)
    fractions = [row[4] for row in result.rows]
    assert fractions == sorted(fractions, reverse=True)


def test_e16_matches_pre_qos_implementation():
    """The repro.qos migration must be a pure refactor: identical rows to
    the seed implementation that fed schedule_two_classes directly."""
    from repro.analysis.scenarios import make_voip_flows
    from repro.core.besteffort import schedule_two_classes
    from repro.core.ilp import delay_constraints_for
    from repro.core.engine import SolverEngine
    from repro.mesh16.frame import default_frame_config
    from repro.net.flows import Flow, FlowSet
    from repro.net.routing import route_all
    from repro.net.topology import grid_topology
    from repro.sim.random import RngRegistry

    call_counts = (0, 2, 4)
    topology = grid_topology(3, 3)
    frame = default_frame_config()
    bulk = route_all(topology, FlowSet([
        Flow("bulk0", 6, 2, rate_bps=800_000),
        Flow("bulk1", 2, 6, rate_bps=800_000),
    ]))
    be_demands = bulk.link_demands(frame.frame_duration_s,
                                   frame.data_slot_capacity_bits)
    solver = SolverEngine()
    legacy_rows = []
    for count in call_counts:
        rngs = RngRegistry(seed=41)
        voip = make_voip_flows(topology, count, rngs, gateway=0,
                               delay_budget_s=0.1)
        g_demands = voip.link_demands(frame.frame_duration_s,
                                      frame.data_slot_capacity_bits)
        conflicts = solver.conflict_index(
            topology, links=set(g_demands) | set(be_demands))
        two = schedule_two_classes(
            conflicts, g_demands, be_demands, frame.data_slots,
            delay_constraints=delay_constraints_for(
                voip, frame.frame_duration_s / frame.data_slots))
        legacy_rows.append([
            count, two.guaranteed_region, two.best_effort_region,
            sum(two.best_effort_grants.values()),
            two.grant_fraction(be_demands)])

    assert ex.e16_two_class(call_counts=call_counts).rows == legacy_rows


def test_e17_shape():
    result = ex.e17_churn(churn_rates=(4.0,), horizon_s=60.0)
    assert_well_formed(result)
    for row in result.rows:
        assert row[1] > 0  # churn actually happened
        assert row[4] < row[5]  # repair window beats re-solve window
        assert row[-2] and row[-1]  # conflict-free + guarantees hold


def test_registry_lists_all():
    # E22 (the runtime chaos sweep) is retired; its id is not reused.
    assert set(ex.ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 24)
                                       if i != 22}

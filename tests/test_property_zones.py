"""Property-based tests: the solver-policy arms on random disk meshes.

Three contracts from ISSUE 8:

- zoned and greedy schedules are **S8-conflict-free** (no conflicting
  blocks overlap, validated against the full conflict graph) and meet
  the **S30 guarantees** (throughput stability and the deterministic
  delay bound within every flow's budget);
- the heuristic arms are *sound, never complete*: when they return a
  schedule it meets every delay budget it was given, and its region is
  never smaller than the exact optimum;
- ``policy="exact"`` (and the default ``"auto"`` policy at paper scale)
  stays **bitwise-identical** to the pre-policy solver output: same
  slots, same probe log, same schedule table.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delay import path_delay_slots
from repro.core.engine import SolverEngine
from repro.core.guarantees import check_guarantees
from repro.core.ilp import delay_constraints_for
from repro.core.minslots import minimum_slots
from repro.core.policy import SolverPolicy
from repro.core.zones import greedy_minimum_slots, zoned_minimum_slots
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import random_disk_topology

FRAME = default_frame_config()
PACKET_BITS = 800


@st.composite
def scheduling_instances(draw):
    """A small random-disk mesh plus 1-4 routed flows with lax budgets."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_nodes = draw(st.integers(min_value=4, max_value=9))
    topology = random_disk_topology(num_nodes, radio_range=45.0,
                                   area=80.0, seed=seed)
    nodes = sorted(topology.nodes)
    others = [n for n in nodes if n != nodes[0]]
    srcs = draw(st.lists(st.sampled_from(others), min_size=1, max_size=4,
                         unique=True))
    flows = route_all(topology, FlowSet([
        Flow(f"f{i}", src=s, dst=nodes[0], rate_bps=64_000,
             delay_budget_s=0.2)
        for i, s in enumerate(srcs)]))
    max_zone_links = draw(st.integers(min_value=2, max_value=6))
    return topology, flows, max_zone_links


def _problem(topology, flows, engine):
    demands = flows.link_demands(FRAME.frame_duration_s,
                                 FRAME.data_slot_capacity_bits)
    index = engine.conflict_index(topology, links=sorted(demands))
    return index, demands, delay_constraints_for(
        flows, FRAME.frame_duration_s / FRAME.data_slots)


def _assert_s8_and_s30(result, index, demands, constraints, flows):
    """The soundness gate every heuristic schedule must pass."""
    schedule = result.schedule
    assert schedule.violations(index) == []          # S8
    assert schedule.demands_met(demands)
    assert schedule.frame_slots == FRAME.data_slots
    for constraint in constraints:
        assert (path_delay_slots(schedule, constraint.route)
                <= constraint.budget_slots)
    for flow in flows:                                     # S30
        report = check_guarantees(schedule, flow, FRAME, PACKET_BITS)
        assert report.stable
        assert report.meets_budget(flow.delay_budget_s)


@given(scheduling_instances())
@settings(max_examples=12, deadline=None)
def test_heuristic_arms_emit_only_valid_guaranteed_schedules(instance):
    topology, flows, max_zone_links = instance
    engine = SolverEngine()
    index, demands, constraints = _problem(topology, flows, engine)
    exact = minimum_slots(index, demands, FRAME.data_slots,
                          constraints, engine=engine, policy="exact")
    policy = SolverPolicy(mode="zoned", max_zone_links=max_zone_links)
    for result in (
            zoned_minimum_slots(index, demands, FRAME.data_slots,
                                constraints, engine=engine, policy=policy),
            greedy_minimum_slots(index, demands, FRAME.data_slots,
                                 constraints, engine=engine)):
        if not result.feasible:
            continue  # sound, not complete: silence is allowed, lies are not
        _assert_s8_and_s30(result, index, demands, constraints, flows)
        if exact.feasible:
            assert result.slots >= exact.slots  # never beats the optimum


@given(scheduling_instances())
@settings(max_examples=12, deadline=None)
def test_exact_policy_is_bitwise_identical_to_the_pre_policy_solver(
        instance):
    topology, flows, ____ = instance
    engine = SolverEngine()
    index, demands, constraints = _problem(topology, flows, engine)

    # The pre-policy path, verbatim: run_search on a fresh cold engine.
    reference_engine = SolverEngine(max_indexes=0, max_problems=0)
    reference = reference_engine.run_search(
        index, demands, FRAME.data_slots, tuple(constraints),
        "linear", FRAME.data_slots)

    for policy in ("exact", None):  # explicit exact and default auto
        result = minimum_slots(index, demands, FRAME.data_slots,
                               constraints, engine=SolverEngine(),
                               policy=policy)
        assert result.slots == reference.slots
        assert result.probes == reference.probes
        assert result.lower_bound == reference.lower_bound
        assert result.meta is None
        if reference.schedule is None:
            assert result.schedule is None
        else:
            assert result.schedule.to_dict() == reference.schedule.to_dict()


@given(scheduling_instances())
@settings(max_examples=8, deadline=None)
def test_zoned_solve_is_deterministic(instance):
    """Equal inputs produce equal zoned schedules -- the property the
    E21 serial-vs-parallel identity check rests on."""
    topology, flows, max_zone_links = instance
    policy = SolverPolicy(mode="zoned", max_zone_links=max_zone_links)
    outcomes = []
    for ____ in range(2):
        engine = SolverEngine()
        index, demands, constraints = _problem(topology, flows, engine)
        result = zoned_minimum_slots(index, demands, FRAME.data_slots,
                                     constraints, engine=engine,
                                     policy=policy)
        outcomes.append(result)
    first, second = outcomes
    assert first.slots == second.slots
    assert first.meta == second.meta
    if first.schedule is not None:
        assert first.schedule.to_dict() == second.schedule.to_dict()

"""Property-based tests: cached SolverEngine equivalence.

The engine's load-bearing contract: an engine with a warm index cache
must return *bitwise-identical* results to a cold, stateless one
(``max_indexes=0``).
Same minimum slots, same probe log (regions and verdicts in order), same
schedule table, on arbitrary small meshes; and repeated searches through
one engine must not contaminate each other.

The solver-policy contracts are checked on slightly larger meshes:

- ``policy="exact"`` (and the default ``"auto"`` policy at paper scale)
  stays **bitwise-identical** to the pre-policy solver output: same
  slots, same probe log, same schedule table;
- the greedy arm is *sound, never complete*: when it returns a schedule
  that schedule is **S8-conflict-free** against the full conflict graph
  and meets the **S30 guarantees** (throughput stability and the
  deterministic delay bound within every flow's budget), and its region
  is never smaller than the exact optimum;
- ``greedy`` and ``auto`` searches are deterministic: equal inputs on
  fresh engines give equal results, which E21's serial-vs-sharded
  identity rests on.
"""

from functools import partial
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import policy as policy_module
from repro.core.delay import path_delay_slots
from repro.core.engine import SolverEngine
from repro.core.greedy import greedy_minimum_slots
from repro.core.guarantees import check_guarantees
from repro.core.ilp import delay_constraints_for
from repro.core.minslots import minimum_slots
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import random_disk_topology

FRAME = default_frame_config()


@st.composite
def scheduling_instances(draw):
    """A small random-disk mesh plus 1-3 routed gateway flows."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_nodes = draw(st.integers(min_value=3, max_value=6))
    topology = random_disk_topology(num_nodes, radio_range=45.0,
                                   area=80.0, seed=seed)
    others = [n for n in topology.nodes if n != 0]
    srcs = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3,
                         unique=True))
    flows = route_all(topology, FlowSet([
        Flow(f"f{i}", src=s, dst=0, rate_bps=64_000, delay_budget_s=0.2)
        for i, s in enumerate(srcs)]))
    return topology, flows


def _solve(topology, flows, engine):
    demands = flows.link_demands(FRAME.frame_duration_s,
                                 FRAME.data_slot_capacity_bits)
    conflicts = engine.conflict_index(topology, links=sorted(demands))
    return minimum_slots(conflicts, demands, FRAME.data_slots,
                         delay_constraints=delay_constraints_for(
                             flows, FRAME.frame_duration_s / FRAME.data_slots),
                         engine=engine)


def _assert_identical(result, reference):
    assert result.slots == reference.slots
    assert result.probes == reference.probes
    assert result.lower_bound == reference.lower_bound
    if reference.schedule is None:
        assert result.schedule is None
    else:
        assert result.schedule.to_dict() == reference.schedule.to_dict()


@given(scheduling_instances())
@settings(max_examples=15, deadline=None)
def test_warm_engine_is_bitwise_identical_to_cold(instance):
    """A cache-warm engine answers like a stateless one.

    The cached engine searches twice, so its second search reads the
    conflict-index cache the first one filled.
    """
    topology, flows = instance
    cold = _solve(topology, flows, SolverEngine(max_indexes=0))
    cached = SolverEngine()
    for ____ in range(2):
        _assert_identical(_solve(topology, flows, cached), cold)


@given(scheduling_instances())
@settings(max_examples=10, deadline=None)
def test_engine_reuse_across_searches_is_isolated(instance):
    """Back-to-back searches through one engine stay bitwise-correct."""
    topology, flows = instance
    shared = SolverEngine()
    first = _solve(topology, flows, shared)
    second = _solve(topology, flows, shared)
    _assert_identical(second, first)
    if first.schedule is not None:
        # cache hits hand out independent copies, never aliases
        assert second.schedule is not first.schedule
        assert second.ilp.order is not first.ilp.order


# -- the solver-policy contracts -------------------------------------------

PACKET_BITS = 800


@st.composite
def policy_instances(draw):
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
    return topology, flows


def _problem(topology, flows, engine):
    demands = flows.link_demands(FRAME.frame_duration_s,
                                 FRAME.data_slot_capacity_bits)
    index = engine.conflict_index(topology, links=sorted(demands))
    return index, demands, delay_constraints_for(
        flows, FRAME.frame_duration_s / FRAME.data_slots)


def _assert_s8_and_s30(result, index, demands, constraints, flows):
    """The soundness gate every greedy schedule must pass."""
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


@given(policy_instances())
@settings(max_examples=12, deadline=None)
def test_greedy_arm_emits_only_valid_guaranteed_schedules(instance):
    topology, flows = instance
    engine = SolverEngine()
    index, demands, constraints = _problem(topology, flows, engine)
    exact = minimum_slots(index, demands, FRAME.data_slots,
                          constraints, engine=engine, policy="exact")
    for result in (
            greedy_minimum_slots(index, demands, FRAME.data_slots,
                                 constraints, engine=engine),
            minimum_slots(index, demands, FRAME.data_slots, constraints,
                          engine=engine, policy="greedy")):
        if not result.feasible:
            continue  # sound, not complete: silence is allowed, lies are not
        _assert_s8_and_s30(result, index, demands, constraints, flows)
        if exact.feasible:
            assert result.slots >= exact.slots  # never beats the optimum


@given(policy_instances())
@settings(max_examples=12, deadline=None)
def test_exact_policy_is_bitwise_identical_to_the_pre_policy_solver(
        instance):
    topology, flows = instance
    engine = SolverEngine()
    index, demands, constraints = _problem(topology, flows, engine)

    # The pre-policy path, verbatim: run_search on a fresh cold engine.
    reference_engine = SolverEngine(max_indexes=0)
    reference = reference_engine.run_search(
        index, demands, FRAME.data_slots, tuple(constraints),
        FRAME.data_slots)

    for policy in ("exact", None):  # explicit exact and default auto
        result = minimum_slots(index, demands, FRAME.data_slots,
                               constraints, engine=SolverEngine(),
                               policy=policy)
        _assert_identical(result, reference)
        assert result.meta is None


def _auto_above_the_threshold(*args, **kwargs):
    """An ``"auto"`` search with the threshold below every instance here,
    so it resolves to the greedy arm."""
    with mock.patch.object(policy_module, "AUTO_THRESHOLD", 1):
        return minimum_slots(*args, policy="auto", **kwargs)


@given(policy_instances())
@settings(max_examples=8, deadline=None)
def test_greedy_and_auto_solves_are_deterministic(instance):
    """Equal inputs produce equal greedy-arm and greedy-mode results --
    the property the E21 serial-vs-parallel identity check rests on."""
    topology, flows = instance
    for solve in (greedy_minimum_slots,
                  partial(minimum_slots, policy="greedy"),
                  _auto_above_the_threshold):
        outcomes = []
        for ____ in range(2):
            engine = SolverEngine()
            index, demands, constraints = _problem(topology, flows, engine)
            outcomes.append(solve(index, demands, FRAME.data_slots,
                                  constraints, engine=engine))
        first, second = outcomes
        assert first.slots == second.slots
        assert first.probes == second.probes
        assert first.meta == second.meta
        if first.schedule is not None:
            assert first.schedule.to_dict() == second.schedule.to_dict()

"""Property-based tests: cached SolverEngine equivalence.

The engine's load-bearing contract: an engine with warm caches --
conflict indexes and solved problems -- must return *bitwise-identical*
results to a cold, stateless one (``max_indexes=0, max_problems=0``).
Same minimum slots, same probe log (regions and verdicts in order), same
schedule table, on arbitrary small meshes; and repeated searches through
one engine must not contaminate each other.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SolverEngine
from repro.core.ilp import delay_constraints_for
from repro.core.minslots import minimum_slots
from repro.core.policy import SolverPolicy
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
    search = draw(st.sampled_from(["linear", "binary"]))
    return topology, flows, search


def _solve(topology, flows, search, engine):
    demands = flows.link_demands(FRAME.frame_duration_s,
                                 FRAME.data_slot_capacity_bits)
    conflicts = engine.conflict_index(topology, links=sorted(demands))
    return minimum_slots(conflicts, demands, FRAME.data_slots,
                         delay_constraints=delay_constraints_for(
                             flows, FRAME.frame_duration_s / FRAME.data_slots),
                         engine=engine,
                         policy=SolverPolicy(search=search))


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
    conflict-index and problem caches the first one filled.
    """
    topology, flows, search = instance
    cold = _solve(topology, flows, search,
                  SolverEngine(max_indexes=0, max_problems=0))
    cached = SolverEngine()
    for ____ in range(2):
        _assert_identical(_solve(topology, flows, search, cached), cold)


@given(scheduling_instances())
@settings(max_examples=10, deadline=None)
def test_engine_reuse_across_searches_is_isolated(instance):
    """Back-to-back searches through one engine stay bitwise-correct."""
    topology, flows, search = instance
    shared = SolverEngine()
    first = _solve(topology, flows, search, shared)
    second = _solve(topology, flows, search, shared)
    _assert_identical(second, first)
    if first.schedule is not None:
        # cache hits hand out independent copies, never aliases
        assert second.schedule is not first.schedule
        assert second.ilp.order is not first.ilp.order

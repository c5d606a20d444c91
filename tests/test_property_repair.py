"""Property-based tests: schedule-repair invariants on small topologies.

The repair engine's load-bearing guarantees: whatever faults strike,
(1) the live schedule is always conflict-free (S8), (2) re-applying an
already-applied event never changes anything (idempotence), and (3) the
repair path reaches the same feasibility verdict the full re-solve
oracle reaches -- local repair may be faster, never wronger.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delay import path_delay_slots
from repro.core.repair import RepairEngine
from repro.faults import FaultEvent
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow
from repro.net.topology import chain_topology, grid_topology, star_topology


def make_topology(kind):
    return {
        "grid22": lambda: grid_topology(2, 2),
        "grid23": lambda: grid_topology(2, 3),
        "chain3": lambda: chain_topology(3),
        "chain4": lambda: chain_topology(4),
        "star3": lambda: star_topology(3),
    }[kind]()


@st.composite
def fault_instances(draw):
    """A small installed mesh plus a sequence of 1-3 topology faults."""
    topology = make_topology(draw(st.sampled_from(
        ["grid22", "grid23", "chain3", "chain4", "star3"])))
    others = [n for n in topology.nodes if n != 0]
    srcs = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2,
                         unique=True))
    flows = [Flow(f"f{i}", src=s, dst=0, rate_bps=64_000,
                  delay_budget_s=0.1) for i, s in enumerate(srcs)]
    edges = sorted(tuple(sorted(e)) for e in topology.graph.edges)
    crashable = [n for n in others if n not in srcs] or [others[0]]
    events = []
    for step in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            link = edges[draw(st.integers(0, len(edges) - 1))]
            events.append(FaultEvent(float(step + 1), "link_down",
                                     link=link))
        else:
            node = crashable[draw(st.integers(0, len(crashable) - 1))]
            events.append(FaultEvent(float(step + 1), "node_down",
                                     node=node))
    return topology, flows, events


@given(fault_instances())
@settings(max_examples=15, deadline=None)
def test_repair_keeps_schedule_conflict_free_and_in_budget(instance):
    topology, flows, events = instance
    engine = RepairEngine(topology, default_frame_config())
    engine.install(flows)
    for event in events:
        engine.apply(event)
        conflicts = engine.interference.conflict_graph(
            engine.alive, links=engine.schedule.links())
        engine.schedule.validate(conflicts)  # S8: raises on any overlap
        for flow in engine.carried_flows:
            assert all(engine.alive.has_link(l) for l in flow.route)
            assert (path_delay_slots(engine.schedule, flow.route)
                    <= engine.budget_slots(flow))


@given(fault_instances())
@settings(max_examples=15, deadline=None)
def test_repair_is_idempotent_on_repeated_events(instance):
    topology, flows, events = instance
    engine = RepairEngine(topology, default_frame_config())
    engine.install(flows)
    for event in events:
        engine.apply(event)
        before = (engine.schedule.to_dict(), engine.version,
                  [f.name for f in engine.carried_flows])
        again = engine.apply(event)
        assert again.strategy == "noop"
        assert (engine.schedule.to_dict(), engine.version,
                [f.name for f in engine.carried_flows]) == before


@given(fault_instances())
@settings(max_examples=10, deadline=None)
def test_repair_matches_full_resolve_feasibility_verdict(instance):
    topology, flows, events = instance
    engine = RepairEngine(topology, default_frame_config())
    engine.install(flows)
    for event in events:
        outcome = engine.apply(event)
        # peek_resolve re-solves the whole managed flow set (carried and
        # parked alike) against the current fault state; its verdict is
        # "can everything reachable be carried?", exactly what
        # outcome.feasible claims about the repair path.
        oracle = engine.peek_resolve()
        assert outcome.feasible == oracle.feasible

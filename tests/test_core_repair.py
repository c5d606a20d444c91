"""Online schedule repair: local BF repair, re-solve fallback, re-admission."""

import pytest

from repro import obs
from repro.core.delay import path_delay_slots
from repro.core.engine import BOUNDS_CLOSED, SolverEngine
from repro.core.repair import RepairEngine
from repro.errors import AdmissionError, ConfigurationError
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow


def make_engine(topology, gateway=0, **kwargs):
    return RepairEngine(topology, default_frame_config(), gateway=gateway,
                        **kwargs)


def gateway_flow(name, src, rate_bps=64_000, budget_s=0.1):
    return Flow(name, src=src, dst=0, rate_bps=rate_bps,
                delay_budget_s=budget_s)


def assert_valid(engine):
    """Post-repair invariant: conflict-free and within every budget."""
    conflicts = engine.interference.conflict_graph(
        engine.alive, links=engine.schedule.links())
    engine.schedule.validate(conflicts)  # raises on violation
    for flow in engine.carried_flows:
        assert all(engine.alive.has_link(l) for l in flow.route)
        if flow.delay_budget_s is not None:
            assert (path_delay_slots(engine.schedule, flow.route)
                    <= engine.budget_slots(flow))


class TestInstall:
    def test_full_solve_runs_the_engine_policy_linear_from_the_floor(
            self, grid33, monkeypatch):
        import repro.core.repair as repair
        from repro.core.conflict import _greedy_clique_demand

        searches = []
        real_minimum_slots = repair.minimum_slots

        def spy(conflicts, demands, frame_slots, **kwargs):
            result = real_minimum_slots(conflicts, demands, frame_slots,
                                        **kwargs)
            searches.append((conflicts, demands, frame_slots, result))
            return result

        monkeypatch.setattr(repair, "minimum_slots", spy)
        # one-frame budgets: no packing inside the floor meets both
        # upstream routes -- the bounds leave a gap and the probe loop runs
        flows = [gateway_flow("f1", 8, budget_s=0.01),
                 gateway_flow("f2", 5, budget_s=0.01)]
        make_engine(grid33, engine=SolverEngine(policy="exact")).install(
            flows)
        (conflicts, demands, frame_slots, search), = searches
        assert search.ilp.solver_status != BOUNDS_CLOSED
        floor = max(search.lower_bound,
                    _greedy_clique_demand(conflicts, demands, frame_slots))
        assert search.lower_bound < floor
        assert search.probes == [(region, region == search.slots)
                                 for region in range(floor,
                                                     search.slots + 1)]
        # the engine's mode governs the re-solve too: its greedy arm
        # misses a budget and the install is refused, never degraded
        searches.clear()
        with pytest.raises(AdmissionError, match="infeasible"):
            make_engine(grid33, engine=SolverEngine(
                policy="greedy")).install(flows)
        (____, ____, ____, greedy), = searches
        assert greedy.meta["mode"] == "greedy"

    def test_initial_solve(self, grid33):
        engine = make_engine(grid33)
        outcome = engine.install([gateway_flow("f1", 8),
                                  gateway_flow("f2", 5)])
        assert outcome.feasible and outcome.strategy == "resolve"
        assert engine.version == 1
        assert len(engine.carried_flows) == 2
        assert_valid(engine)

    def test_install_twice_rejected(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8)])
        with pytest.raises(ConfigurationError, match="once"):
            engine.install([gateway_flow("f2", 5)])

    def test_apply_before_install_rejected(self, grid33):
        engine = make_engine(grid33)
        with pytest.raises(ConfigurationError, match="install"):
            engine.apply(FaultEvent(1.0, "link_down", link=(0, 1)))


class TestLinkDown:
    def test_redundant_link_failure_repairs_locally(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8), gateway_flow("f2", 2)])
        outcome = engine.apply(FaultEvent(1.0, "link_down", link=(0, 1)))
        assert outcome.feasible
        assert outcome.strategy == "local"
        assert outcome.ilp_probes == 0
        assert not engine.schedule.restrict([(0, 1), (1, 0)]).links()
        assert_valid(engine)

    def test_unaffected_flow_keeps_route(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8), gateway_flow("f2", 2)])
        before = {f.name: f.route for f in engine.carried_flows}
        outcome = engine.apply(FaultEvent(1.0, "link_down", link=(0, 1)))
        after = {f.name: f.route for f in engine.carried_flows}
        # only flows whose route used the cut edge changed
        for name in after:
            if name not in outcome.rerouted:
                assert after[name] == before[name]

    def test_noop_on_repeated_event(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8)])
        event = FaultEvent(1.0, "link_down", link=(0, 1))
        first = engine.apply(event)
        version = engine.version
        second = engine.apply(event)
        assert second.strategy == "noop"
        assert engine.version == version
        assert second.schedule.to_dict() == first.schedule.to_dict()

    def test_retarget_to_a_reversed_dead_edge_is_a_noop(self, grid33):
        # (1, 0) names the edge the engine stores as (0, 1)
        engine = make_engine(grid33, dead_edges=[(1, 0)])
        engine.install([gateway_flow("f1", 8)])
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            outcome = engine.retarget(frozenset(), frozenset({(1, 0)}))
        assert outcome.strategy == "noop"
        assert engine.dead_edges == frozenset({(0, 1)})
        assert engine.version == 1
        counters = registry.snapshot()["counters"]
        assert "core.repair.local" not in counters
        assert counters["core.repair.noop"] == 1

    def test_retarget_stores_reversed_dead_edges_sorted(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8)])
        engine.retarget(frozenset(), frozenset({(1, 0), (4, 3)}))
        assert engine.dead_edges == frozenset({(0, 1), (3, 4)})
        assert not engine.alive.has_link((0, 1))
        assert not engine.alive.has_link((3, 4))
        assert_valid(engine)
        again = engine.retarget(frozenset(), frozenset({(0, 1), (3, 4)}))
        assert again.strategy == "noop"

    def test_non_topology_event_is_noop(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8)])
        outcome = engine.apply(
            FaultEvent(1.0, "link_loss", link=(0, 1), value=0.5))
        assert outcome.strategy == "noop"
        assert engine.version == 1


class TestNodeChurn:
    def test_dead_node_parks_its_flow(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8), gateway_flow("f2", 4)])
        outcome = engine.apply(FaultEvent(1.0, "node_down", node=8))
        assert "f1" in outcome.parked
        assert engine.parked_flows == ["f1"]
        assert [f.name for f in engine.carried_flows] == ["f2"]
        assert_valid(engine)

    def test_recovery_readmits_parked_flow(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8), gateway_flow("f2", 4)])
        engine.apply(FaultEvent(1.0, "node_down", node=8))
        outcome = engine.apply(FaultEvent(5.0, "node_up", node=8))
        assert "f1" in outcome.readmitted
        assert engine.parked_flows == []
        assert_valid(engine)

    def test_transit_node_crash_reroutes(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8)])
        outcome = engine.apply(FaultEvent(1.0, "node_down", node=4))
        assert outcome.feasible
        assert "f1" in outcome.rerouted or not any(
            4 in link for f in engine.carried_flows for link in f.route)
        assert_valid(engine)

    def test_partition_parks_far_side(self, chain5):
        engine = make_engine(chain5)
        engine.install([gateway_flow("near", 1), gateway_flow("far", 4)])
        outcome = engine.apply(FaultEvent(1.0, "node_down", node=2))
        assert outcome.parked == ("far",)
        assert [f.name for f in engine.carried_flows] == ["near"]
        assert_valid(engine)


class TestResolveFallback:
    def test_chain_cut_forces_resolve_or_park(self, chain5):
        """On a chain there is no detour: the cut partitions the mesh."""
        engine = make_engine(chain5)
        engine.install([gateway_flow("f1", 4)])
        outcome = engine.apply(FaultEvent(1.0, "link_down", link=(2, 3)))
        assert outcome.parked == ("f1",)
        assert engine.schedule.links() == []

    def test_peek_resolve_matches_feasibility(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8), gateway_flow("f2", 2)])
        outcome = engine.apply(FaultEvent(1.0, "link_down", link=(0, 1)))
        baseline = engine.peek_resolve()
        assert baseline.feasible == outcome.feasible
        assert baseline.iterations >= 1

    def test_peek_resolve_does_not_mutate(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8)])
        before = engine.schedule.to_dict()
        engine.peek_resolve(dead_edges=frozenset({(0, 1)}))
        assert engine.schedule.to_dict() == before
        assert engine.dead_edges == frozenset()


class TestInjectorIntegration:
    def test_engine_as_injector_listener(self, grid33):
        engine = make_engine(grid33)
        engine.install([gateway_flow("f1", 8)])
        plan = FaultPlan.scripted([
            FaultEvent(1.0, "link_down", link=(0, 1)),
            FaultEvent(2.0, "link_down", link=(0, 3)),
            FaultEvent(3.0, "link_up", link=(0, 1)),
        ], grid33)
        injector = FaultInjector(plan, grid33, listeners=[engine])
        injector.run_plan()
        assert engine.dead_edges == frozenset({(0, 3)})
        assert len(engine.history) >= 4  # install + 3 events
        assert_valid(engine)

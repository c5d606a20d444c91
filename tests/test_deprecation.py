"""The package's public spellings and internals raise no DeprecationWarning."""

import warnings

from repro.core.minslots import minimum_slots
from repro.core.conflict import conflict_graph
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import chain_topology
from repro.mesh16.frame import default_frame_config


def _search():
    topo = chain_topology(4)
    frame = default_frame_config()
    flows = route_all(topo, FlowSet([
        Flow("f", src=0, dst=3, rate_bps=64_000)]))
    demands = flows.link_demands(frame.frame_duration_s,
                                 frame.data_slot_capacity_bits)
    return minimum_slots(conflict_graph(topo, links=demands.keys()),
                         demands, frame.data_slots)


def test_new_spellings_do_not_warn():
    search = _search()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert search.schedule is not None
        assert search.order is not None
        assert search.feasible
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]


def test_repro_itself_triggers_zero_deprecation_warnings():
    """The package must not call deprecated APIs, its own or its deps'.

    Drives a representative slice of the stack -- facade scheduling, the
    solver engine, repair, simulation -- with DeprecationWarning promoted
    to an error, so any caller still on a deprecated spelling fails here
    rather than warning downstream users.
    """
    from repro import Scenario
    from repro.core.repair import RepairEngine

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        topo = chain_topology(4)
        frame = default_frame_config()
        flows = route_all(topo, FlowSet([
            Flow("f", src=0, dst=3, rate_bps=64_000,
                 delay_budget_s=0.1)]))
        scenario = Scenario(topo, flows, frame=frame)
        search = scenario.schedule()
        assert search.feasible
        scenario.simulate(duration_s=0.3, seed=7)

        repair = RepairEngine(topo, frame)
        repair.install(list(flows))
        repair.retarget(frozenset(), frozenset({(1, 2)}))
        _search()

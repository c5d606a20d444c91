"""Experiment harness tests beyond the identity test.

Each experiment's shape check lives in its declaration in
:mod:`repro.analysis.experiments` and runs on its reduced-parameter
table, built through the runner, in ``tests/test_experiment_identity.py``.
The ``test_eNN_shape`` tests here call five cheap experiments' own
functions directly at the same parameters, so the check also holds off
the runner's path.  The rest: a boundary error, a reference
implementation and the registry's ids.
"""

import pytest

from repro.analysis import experiments as ex
from repro.errors import ConfigurationError


def _check_reduced(experiment: str) -> None:
    declared = ex.ALL_EXPERIMENTS[experiment]
    declared.check(declared.run(**declared.reduced))


def test_e05_shape():
    _check_reduced("E5")


def test_e05_rejects_a_load_with_no_admitted_call():
    # a one-slot budget no multi-hop call can meet leaves nothing to run
    with pytest.raises(ConfigurationError, match="no flow could be admitted"):
        ex.e05_voip_capacity(call_counts=(1,), duration_s=0.2,
                             delay_target_s=0.001)


def test_e10_shape():
    _check_reduced("E10")


def test_e12_shape():
    _check_reduced("E12")


def test_e14_shape():
    _check_reduced("E14")


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
    _check_reduced("E17")


def test_registry_lists_all():
    # E22 (the runtime chaos sweep) is retired; its id is not reused.
    assert set(ex.ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 24)
                                       if i != 22}

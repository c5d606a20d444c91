"""Admission controller."""

import math

import pytest

from repro import obs
from repro.core.admission import AdmissionController
from repro.core.policy import SolverPolicy
from repro.errors import ConfigurationError
from repro.net.flows import Flow
from repro.net.topology import chain_topology, star_topology


def controller(topology=None, frame_slots=16, region=None):
    return AdmissionController(
        topology or chain_topology(5),
        frame_slots=frame_slots,
        frame_duration_s=0.010,
        slot_capacity_bits=2000,
        guaranteed_region_slots=region)


def voip_flow(name, src, dst, rate=80_000, budget=0.1):
    return Flow(name, src, dst, rate_bps=rate, delay_budget_s=budget)


class TestAdmission:
    def test_first_flow_admitted(self):
        ctrl = controller()
        decision = ctrl.try_admit(voip_flow("a", 0, 4))
        assert decision.admitted
        assert ctrl.admitted_count() == 1
        assert ctrl.schedule is not None
        # three mutually conflicting links of the chain at minimum; with the
        # loose 0.1 s budget wraps are allowed, so 3 slots suffice
        assert decision.slots_used >= 3

    def test_tight_budget_forces_pipeline_region(self):
        ctrl = controller()
        # 0.01 s = one frame: zero wraps allowed, so all 4 hops need
        # distinct forward slots
        decision = ctrl.try_admit(voip_flow("a", 0, 4, budget=0.01))
        assert decision.admitted
        assert decision.slots_used >= 4

    def test_admitted_flow_gets_route(self):
        ctrl = controller()
        decision = ctrl.try_admit(voip_flow("a", 0, 2))
        assert decision.flow.is_routed
        assert decision.flow.route == ((0, 1), (1, 2))

    def test_pre_routed_flow_respected(self):
        ctrl = controller()
        flow = voip_flow("a", 0, 2).with_route([(0, 1), (1, 2)])
        assert ctrl.try_admit(flow).admitted

    def test_rejection_preserves_state(self):
        topo = star_topology(3)
        # region of 3 slots; each flow needs 1 slot on its single link and
        # all star links conflict
        ctrl = controller(topology=topo, region=3)
        for i, leaf in enumerate((1, 2, 3)):
            assert ctrl.try_admit(voip_flow(f"f{i}", leaf, 0,
                                            rate=150_000)).admitted
        before = ctrl.slots_used
        decision = ctrl.try_admit(voip_flow("overflow", 1, 2, rate=150_000))
        assert not decision.admitted
        assert ctrl.admitted_count() == 3
        assert ctrl.slots_used == before
        assert "overflow" not in ctrl.admitted

    def test_schedule_meets_all_budgets_after_each_admission(self):
        from repro.core.delay import path_delay_slots

        ctrl = controller(frame_slots=16)
        budget_slots = int(0.1 / ctrl.slot_duration_s)
        for i in range(2):
            decision = ctrl.try_admit(voip_flow(f"f{i}", 0, 4, rate=40_000))
            assert decision.admitted
            for flow in ctrl.admitted:
                delay = path_delay_slots(ctrl.schedule, flow.route)
                assert delay <= budget_slots

    def test_duplicate_name_rejected(self):
        ctrl = controller()
        ctrl.try_admit(voip_flow("a", 0, 2))
        with pytest.raises(ConfigurationError, match="already"):
            ctrl.try_admit(voip_flow("a", 0, 3))

    def test_budget_below_slot_rejected(self):
        ctrl = controller()
        with pytest.raises(ConfigurationError, match="below one slot"):
            ctrl.try_admit(voip_flow("a", 0, 2, budget=1e-5))


class TestRelease:
    def test_release_frees_capacity(self):
        topo = star_topology(3)
        # every star link conflicts with every other; the relayed flow "x"
        # (1 -> hub -> 2) needs two slots, the leaf flows one each
        ctrl = controller(topology=topo, region=4)
        for i, leaf in enumerate((1, 2, 3)):
            assert ctrl.try_admit(
                voip_flow(f"f{i}", leaf, 0, rate=150_000)).admitted
        assert not ctrl.try_admit(
            voip_flow("x", 1, 2, rate=150_000)).admitted  # 3 + 2 > 4
        ctrl.release("f0")
        assert ctrl.try_admit(
            voip_flow("x", 1, 2, rate=150_000)).admitted  # 2 + 2 == 4

    def test_release_last_flow_clears_schedule(self):
        ctrl = controller()
        ctrl.try_admit(voip_flow("a", 0, 2))
        ctrl.release("a")
        assert ctrl.admitted_count() == 0
        assert ctrl.schedule is None
        assert ctrl.slots_used == 0

    def test_release_unknown_rejected(self):
        with obs.use_registry(obs.MetricsRegistry()) as reg:
            with pytest.raises(ConfigurationError,
                               match="no such admitted flow"):
                controller().release("ghost")
        counters = reg.snapshot()["counters"]
        assert counters["core.admission.release_unknown"] == 1

    def test_release_unknown_leaves_state_untouched(self):
        ctrl = controller()
        ctrl.try_admit(voip_flow("f1", 0, 2))
        before = ctrl.schedule.to_dict()
        with pytest.raises(ConfigurationError):
            ctrl.release("ghost")
        assert ctrl.admitted_count() == 1
        assert ctrl.schedule.to_dict() == before


class TestConfiguration:
    def test_invalid_region(self):
        with pytest.raises(ConfigurationError):
            controller(region=0)
        with pytest.raises(ConfigurationError):
            controller(region=17)

    @pytest.mark.parametrize("frame_slots, region", [
        (2.5, None), (True, None), (0, None), ("16", None),
        (16, True), (16, 2.5), (16, "8")])
    def test_slot_counts_must_be_ints(self, frame_slots, region):
        from repro.mesh16.frame import default_frame_config
        from repro.qos.admission import QosAdmissionController

        with pytest.raises(ConfigurationError, match="must be an int"):
            controller(frame_slots=frame_slots, region=region)
        if region is not None:
            with pytest.raises(ConfigurationError, match="must be an int"):
                QosAdmissionController(chain_topology(3),
                                       default_frame_config(),
                                       guaranteed_region_slots=region)

    def test_invalid_frame_params(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(chain_topology(3), 16, 0.0, 1000)

    @pytest.mark.parametrize("frame_duration_s, slot_capacity_bits", [
        (math.nan, 1000), (math.inf, 1000), (-0.01, 1000),
        (0.01, math.nan), (0.01, math.inf), (0.01, -math.inf)])
    def test_frame_params_must_be_finite_and_positive(
            self, frame_duration_s, slot_capacity_bits):
        from types import SimpleNamespace

        from repro.qos.admission import QosAdmissionController

        with pytest.raises(ConfigurationError, match="positive and finite"):
            AdmissionController(chain_topology(3), 16, frame_duration_s,
                                slot_capacity_bits)
        # the QoS controller passes its frame's values straight through
        frame = SimpleNamespace(data_slots=16,
                                frame_duration_s=frame_duration_s,
                                data_slot_capacity_bits=slot_capacity_bits)
        with pytest.raises(ConfigurationError, match="positive and finite"):
            QosAdmissionController(chain_topology(3), frame)

    def test_search_is_linear_from_the_floor_under_the_cap(
            self, monkeypatch):
        import repro.core.admission as admission
        from repro.core.conflict import _greedy_clique_demand
        from repro.core.engine import BOUNDS_CLOSED

        searches = []
        real_minimum_slots = admission.minimum_slots

        def spy(conflicts, demands, *args, **kwargs):
            result = real_minimum_slots(conflicts, demands, *args, **kwargs)
            searches.append((conflicts, demands, result))
            return result

        monkeypatch.setattr(admission, "minimum_slots", spy)
        ctrl = controller(region=12)
        assert ctrl.policy == SolverPolicy(max_region=12)
        # a loose budget: first-fit meets it, so the bounds close
        assert ctrl.try_admit(voip_flow("a", 0, 4)).admitted
        # three slots a hop under a one-frame budget: no packing inside
        # the floor meets it, so the probe loop searches the gap
        assert ctrl.try_admit(voip_flow("b", 4, 0, rate=240_000,
                                        budget=0.01)).admitted
        (____, ____, closed), (conflicts, demands, gap) = searches
        assert closed.probes == [(closed.slots, True)]
        assert closed.ilp.solver_status == BOUNDS_CLOSED
        assert gap.ilp.solver_status != BOUNDS_CLOSED
        floor = max(gap.lower_bound,
                    _greedy_clique_demand(conflicts, demands, 12))
        assert gap.lower_bound < floor < gap.slots <= 12
        # upward from the floor, not the bound or the cap: only the last
        # region probed is feasible
        assert gap.probes == [(region, region == gap.slots)
                              for region in range(floor, gap.slots + 1)]

    def test_every_probe_is_budgeted_by_nodes_not_the_clock(
            self, monkeypatch):
        import repro.core.ilp as ilp
        from repro.core.conflict import conflict_graph
        from repro.core.ilp import DelayConstraint
        from repro.core.minslots import minimum_slots

        options_seen = []
        real_milp = ilp.milp

        def spy(*args, options=None, **kwargs):
            options_seen.append(dict(options))
            return real_milp(*args, options=options, **kwargs)

        monkeypatch.setattr(ilp, "milp", spy)
        ctrl = controller()
        # one-frame budgets first-fit misses: gap searches, so ILP probes
        for index, (src, dst) in enumerate([(4, 0), (3, 1), (0, 4)]):
            ctrl.try_admit(voip_flow(f"f{index}", src, dst, budget=0.01))
        solves_by_admission = len(options_seen)
        topology = chain_topology(5)
        # both directions pipelined hop by hop: no packing inside the
        # floor meets the two budgets, so the bare search probes too
        upstream = DelayConstraint(
            "up", ((4, 3), (3, 2), (2, 1), (1, 0)), 4)
        downstream = DelayConstraint(
            "down", ((0, 1), (1, 2), (2, 3), (3, 4)), 4)
        minimum_slots(conflict_graph(topology, hops=2),
                      {link: 1 for link in topology.links}, 16,
                      delay_constraints=[upstream, downstream])
        assert 0 < solves_by_admission < len(options_seen)
        for options in options_seen:
            assert "time_limit" not in options
            assert options["node_limit"] == ilp.DEFAULT_NODE_LIMIT

    def test_slot_duration(self):
        ctrl = controller(frame_slots=10)
        assert ctrl.slot_duration_s == pytest.approx(0.001)


# -- certificates published on read ----------------------------------------

#: (grid, calls seed, delay budget) of every pinned decision sequence of
#: tests/test_admission_golden.py: the six voip-admission pools, the
#: 12 ms sequence the packing descent decides and the 15 ms 3x3 sequence
#: that reaches the greedy rung and one ILP gap search.
PUBLISHED_SEQUENCES = (
    [((2, 4), seed, 0.05) for seed in (8, 11, 12, 13, 14, 19)]
    + [((2, 4), 11, 0.012), ((3, 3), 10, 0.015)])


def _eager(result):
    """The schedule (as ``to_dict``) and order ranks a search publishes,
    built eagerly now: from a copy of a certificate's start slots, or
    read off a solver's schedule."""
    from repro.core.engine import BOUNDS_CLOSED
    from repro.core.schedule import Schedule, SlotBlock

    schedule = result.schedule
    if result.ilp.solver_status != BOUNDS_CLOSED:
        return schedule.to_dict(), dict(result.order._ranks)
    links, start, length = map(list, schedule._packing)
    built = Schedule(schedule.frame_slots, {
        link: SlotBlock(start[i], length[i]) for i, link in enumerate(links)})
    return built.to_dict(), {link: float(start[i])
                             for i, link in enumerate(links)}


def _replay(grid, seed, budget, monkeypatch):
    """Play a pinned sequence (offer, release every other admitted call,
    re-offer the rejected), reading no schedule.  Returns the controller
    and, per decision, ``(kind, decision or None, search result or None,
    schedule, expected)``: the controller's schedule after the decision
    and the eager build it must equal."""
    import repro.core.admission as admission
    from repro.mesh16.frame import default_frame_config
    from repro.net.topology import grid_topology
    from tests.test_admission_golden import _calls

    searches = []
    real_minimum_slots = admission.minimum_slots

    def spy(*args, **kwargs):
        searches.append(real_minimum_slots(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(admission, "minimum_slots", spy)
    topology = grid_topology(*grid)
    frame = default_frame_config()
    ctrl = AdmissionController(
        topology, frame_slots=frame.data_slots,
        frame_duration_s=frame.frame_duration_s,
        slot_capacity_bits=frame.data_slot_capacity_bits)
    records = []
    expected = None  # the eager build of ctrl.schedule

    def offer(flow):
        nonlocal expected
        decision = ctrl.try_admit(flow)
        result = searches[-1]
        if decision.admitted:
            expected = _eager(result)
            assert decision.schedule is result.schedule
        records.append(("offer", decision, result, ctrl.schedule, expected))
        return decision

    admitted, rejected = [], []
    for flow in _calls(topology, seed, budget):
        (admitted if offer(flow).admitted else rejected).append(flow)
    for flow in admitted[::2]:
        before = len(searches)
        ctrl.release(flow.name)
        result = searches[-1] if len(searches) > before else None
        expected = None if result is None else _eager(result)
        records.append(("release", None, result, ctrl.schedule, expected))
    for flow in rejected:
        offer(flow)
    return ctrl, records


#: SHA-256 prefix of call6's search in the 15 ms 3x3 sequence: slots,
#: probe log, solver status and schedule.
ILP_DECIDED_DIGEST = "4437f1162a247cc6"


class TestPublishedOnRead:
    @pytest.mark.parametrize("grid, seed, budget", PUBLISHED_SEQUENCES)
    def test_every_decision_keeps_the_schedule_it_was_made_with(
            self, grid, seed, budget, monkeypatch):
        from repro.core.engine import BOUNDS_CLOSED

        ctrl, records = _replay(grid, seed, budget, monkeypatch)
        assert ctrl.schedule is records[-1][3]
        closed = [result for ____, ____, result, ____, ____ in records
                  if result is not None and result.feasible
                  and result.ilp.solver_status == BOUNDS_CLOSED]
        assert closed
        for result in closed:  # no decision built its certificate
            assert "_blocks" not in vars(result.schedule)
            assert "_ranks" not in vars(result.order)
        for kind, decision, result, schedule, expected in records:
            if kind == "offer":
                # a rejected call keeps the schedule from before it
                assert decision.schedule is schedule
            if expected is None:
                assert schedule is None
                continue
            # read only now, after every later offer and release
            assert schedule.to_dict() == expected[0]
            if result is not None and result.schedule is schedule:
                assert dict(result.order._ranks) == expected[1]
                assert result.order is result.order
                if result.ilp.solver_status == BOUNDS_CLOSED:
                    assert result.order._pairs == {}
            # built once: every later read returns the same blocks
            link = schedule.links()[0]
            assert schedule.block(link) is schedule.block(link)
            assert schedule.to_dict() == expected[0]

    def test_the_ilp_decided_search_publishes_its_solver_schedule(
            self, monkeypatch):
        """The 15 ms 3x3 sequence's one ILP gap search (call6) publishes
        the solver's schedule, built eagerly and pinned."""
        import hashlib

        from repro.core.engine import BOUNDS_CLOSED

        ctrl, records = _replay((3, 3), 10, 0.015, monkeypatch)
        decided = [(decision, result) for ____, decision, result, ____, ____
                   in records if result is not None and result.feasible
                   and result.ilp.solver_status != BOUNDS_CLOSED]
        assert [decision.flow.name for decision, ____ in decided] == ["call6"]
        (decision, result), = decided
        assert "_blocks" in vars(result.schedule)
        assert result.schedule.violations(ctrl.conflicts) == []
        digest = hashlib.sha256(repr((
            result.slots, result.probes, result.ilp.solver_status,
            result.schedule.to_dict())).encode()).hexdigest()[:16]
        assert digest == ILP_DECIDED_DIGEST

    def test_qos_request_builds_no_schedule(self):
        from repro.mesh16.frame import default_frame_config
        from repro.qos.admission import QosAdmissionController
        from repro.qos.model import ServiceClass, ServiceFlow, TrafficContract

        qos = QosAdmissionController(chain_topology(5),
                                     default_frame_config())
        flow = ServiceFlow("rt", 4, 0, ServiceClass.RTPS, TrafficContract(
            min_reserved_rate_bps=64_000, max_latency_s=0.1))
        decision = qos.request(flow)
        assert decision.admitted
        assert decision.schedule is qos.schedule
        assert "_blocks" not in vars(decision.schedule)
        assert decision.schedule.violations(qos._core.conflicts) == []
        assert decision.schedule.makespan() <= qos.slots_used

"""One interference selector: ``interference=`` at every entry point.

Every public entry point that schedules against a conflict relation names
it the same way: ``interference=None`` means ``ProtocolModel(hops=2)``,
an :class:`~repro.phy.models.InterferenceModel` passes through unchanged,
and anything else -- a bare hops integer, a bool, a string -- raises
:class:`~repro.errors.ConfigurationError` at the boundary.  The former
parallel selectors (``hops=``, ``conflict_hops=``, ``default_hops=``) are
gone, so passing one is a ``TypeError``.
"""

import pytest

from repro import Scenario
from repro.core.admission import AdmissionController
from repro.core.conflict import conflict_graph
from repro.core.engine import SolverEngine
from repro.core.repair import RepairEngine
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.mobility.models import ConstantVelocityModel
from repro.mobility.run import run_mobility
from repro.mobility.stream import TopologyStream
from repro.net.flows import Flow
from repro.net.topology import chain_topology
from repro.phy.interference import (
    interference_graph,
    overcautious_pairs,
    uncovered_interference,
)
from repro.phy.models import ProtocolModel, SinrModel, coerce_interference
from repro.qos import (
    ServiceClass,
    ServiceFlow,
    ServiceFlowSet,
    TrafficContract,
    grant_schedule_for,
)
from repro.qos.admission import QosAdmissionController

FRAME = default_frame_config()
#: positioned, so the SINR backend can run on it too
TOPO = chain_topology(6, spacing=90.0)
BAD_VALUES = [3, True, "sinr"]


def _flows():
    return [Flow("f", src=5, dst=0, rate_bps=64_000, delay_budget_s=0.2)]


def _stream():
    positions = {n: (90.0 * n, 0.0) for n in range(4)}
    velocities = {n: (0.0, 0.0) for n in positions}
    return TopologyStream(ConstantVelocityModel(positions, velocities, 2.0),
                          100.0, dt=1.0)


def _service_flows():
    rate = FRAME.data_slot_capacity_bits / FRAME.frame_duration_s
    contract = TrafficContract(min_reserved_rate_bps=rate,
                               max_sustained_rate_bps=2 * rate)
    return ServiceFlowSet([ServiceFlow("s", 3, 0, ServiceClass.NRTPS,
                                       contract)])


class _Recorder(SolverEngine):
    """A solver engine that remembers every conflict index it serves."""

    def __init__(self):
        super().__init__()
        self.served = []

    def conflict_index(self, topology, links=None, interference=None):
        index = super().conflict_index(topology, links=links,
                                       interference=interference)
        self.served.append((topology, index))
        return index


def _first_served(run):
    def entry(interference):
        recorder = _Recorder()
        run(interference, recorder)
        return recorder.served[0]
    return entry


def _direct(run):
    def entry(interference):
        return TOPO, run(interference)
    return entry


#: entry point -> (interference -> (topology, the index it scheduled on))
ENTRY_POINTS = {
    "Scenario": _first_served(
        lambda i, engine: Scenario(TOPO, _flows(), interference=i,
                                   engine=engine).route().conflicts),
    "RepairEngine": _first_served(
        lambda i, engine: RepairEngine(TOPO, FRAME, interference=i,
                                       engine=engine).install(_flows())),
    "run_mobility": _first_served(
        lambda i, engine: run_mobility(
            _stream(), [Flow("m", src=3, dst=0, rate_bps=64_000)],
            interference=i, engine=engine)),
    "SolverEngine.conflict_index": _first_served(
        lambda i, engine: engine.conflict_index(TOPO, interference=i)),
    "AdmissionController": _direct(
        lambda i: AdmissionController(TOPO, FRAME.data_slots, 0.01, 1000.0,
                                      interference=i).conflicts),
    "QosAdmissionController": _direct(
        lambda i: QosAdmissionController(TOPO, FRAME,
                                         interference=i)._core.conflicts),
    "grant_schedule_for": _first_served(
        lambda i, engine: grant_schedule_for(TOPO, _service_flows(), FRAME,
                                             engine=engine,
                                             interference=i)),
}

#: entry point -> a call passing a selector this redesign removed
REMOVED_KWARGS = {
    "Scenario": lambda: Scenario(TOPO, _flows(), hops=2),
    "RepairEngine": lambda: RepairEngine(TOPO, FRAME, hops=2),
    "run_mobility": lambda: run_mobility(_stream(), [], hops=2),
    "SolverEngine.conflict_index":
        lambda: SolverEngine().conflict_index(TOPO, hops=2),
    "AdmissionController": lambda: AdmissionController(
        TOPO, FRAME.data_slots, 0.01, 1000.0, conflict_hops=2),
    "QosAdmissionController":
        lambda: QosAdmissionController(TOPO, FRAME, conflict_hops=2),
    "grant_schedule_for": lambda: grant_schedule_for(
        TOPO, _service_flows(), FRAME, conflict_hops=2),
    "uncovered_interference": lambda: uncovered_interference(TOPO, hops=2),
    "overcautious_pairs": lambda: overcautious_pairs(TOPO, hops=2),
    "coerce_interference": lambda: coerce_interference(None, default_hops=2),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
class TestEntryPoints:
    def test_none_is_the_two_hop_protocol_model(self, name):
        ____, default = ENTRY_POINTS[name](None)
        topology, explicit = ENTRY_POINTS[name](ProtocolModel(2))
        assert default.links == explicit.links
        assert default.pairs() == explicit.pairs()
        assert default.hops == explicit.hops == 2
        assert (explicit.pairs()
                == conflict_graph(topology, hops=2,
                                  links=explicit.links).pairs())

    def test_one_hop_protocol_model_is_the_one_hop_relation(self, name):
        topology, index = ENTRY_POINTS[name](ProtocolModel(1))
        assert index.hops == 1
        assert (index.pairs()
                == conflict_graph(topology, hops=1,
                                  links=index.links).pairs())
        ____, two_hop = ENTRY_POINTS[name](None)
        assert index.pairs() != two_hop.pairs()

    def test_sinr_model_passes_through(self, name):
        model = SinrModel()
        topology, index = ENTRY_POINTS[name](model)
        assert index.hops is None
        direct = model.conflict_graph(topology, links=list(index.links))
        assert index.links == direct.links
        assert index.pairs() == direct.pairs()

    @pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
    def test_anything_else_is_rejected(self, name, bad):
        with pytest.raises(ConfigurationError,
                           match=r"ProtocolModel\(hops=k\)"):
            ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("name", REMOVED_KWARGS)
def test_removed_selectors_are_type_errors(name):
    with pytest.raises(TypeError):
        REMOVED_KWARGS[name]()


@pytest.mark.parametrize("validator",
                         [uncovered_interference, overcautious_pairs])
class TestContainmentValidators:
    """``model=`` and ``truth=`` follow the same boundary rule."""

    def test_none_is_the_two_hop_protocol_model(self, validator):
        assert validator(TOPO) == validator(TOPO, model=ProtocolModel(2))

    def test_one_hop_protocol_model_is_the_one_hop_relation(self,
                                                            validator):
        truth = interference_graph(TOPO)
        one_hop = conflict_graph(TOPO, hops=1)
        pairs = (truth.pairs() if validator is uncovered_interference
                 else one_hop.pairs())
        other = one_hop if validator is uncovered_interference else truth
        expected = [pair for pair in pairs if not other.has_edge(*pair)]
        assert validator(TOPO, model=ProtocolModel(1)) == expected

    def test_sinr_model_passes_through(self, validator):
        model = SinrModel()
        prebuilt = model.conflict_graph(TOPO)
        assert (validator(TOPO, truth=model)
                == validator(TOPO, truth=prebuilt))
        assert validator(TOPO, model=model, truth=prebuilt) == []

    @pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
    def test_anything_else_is_rejected(self, validator, bad):
        for kwargs in ({"model": bad}, {"truth": bad}):
            with pytest.raises(ConfigurationError,
                               match=r"ProtocolModel\(hops=k\)"):
                validator(TOPO, **kwargs)

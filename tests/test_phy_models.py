"""Unit tests for the interference-model seam (repro.phy.models, S39)."""

import math

import pytest

from repro import obs
from repro.core.conflict import conflict_graph
from repro.errors import ConfigurationError
from repro.mobility.stream import RadioRangeModel, TopologyStream
from repro.net.topology import chain_topology, from_edges, grid_topology
from repro.phy.models import (
    ChannelCouplings,
    InterferenceModel,
    McsEntry,
    McsTable,
    PathLossModel,
    ProtocolModel,
    SinrModel,
    coerce_interference,
)

# chain spacing chosen so adjacent SNR sits in the 12M band and
# interference is audible out to ~3 hops (see docs/interference.md)
SPACING = 90.0


def chain8():
    return chain_topology(8, spacing=SPACING)


# -- PathLossModel ----------------------------------------------------------

def test_path_loss_log_distance():
    pl = PathLossModel(exponent=3.0, ref_loss_db=40.0)
    assert pl.loss_db(1.0) == pytest.approx(40.0)
    assert pl.loss_db(10.0) == pytest.approx(70.0)  # +10*n per decade
    assert pl.loss_db(100.0) == pytest.approx(100.0)
    # receivers inside the reference distance see the reference loss
    assert pl.loss_db(0.01) == pytest.approx(40.0)


def test_path_loss_rss_and_range_inverse():
    pl = PathLossModel(exponent=3.0, ref_loss_db=40.0)
    rng = pl.range_m(20.0, -86.0)
    assert pl.rss_dbm(20.0, rng) == pytest.approx(-86.0)
    # no positive margin -> no range at all
    assert pl.range_m(20.0, 30.0) == 0.0


def test_path_loss_validation():
    with pytest.raises(ConfigurationError):
        PathLossModel(exponent=0.0)
    with pytest.raises(ConfigurationError):
        PathLossModel(ref_distance_m=-1.0)


# -- McsTable ---------------------------------------------------------------

def test_mcs_table_sorted_and_validated():
    table = McsTable.from_rows([("fast", 20.0, 100), ("slow", 10.0, 10)])
    assert [e.name for e in table.entries] == ["slow", "fast"]
    assert table.floor_db == 10.0
    with pytest.raises(ConfigurationError):
        McsTable([])
    with pytest.raises(ConfigurationError):  # duplicate threshold
        McsTable.from_rows([("a", 10.0, 10), ("b", 10.0, 20)])
    with pytest.raises(ConfigurationError):  # rate not increasing
        McsTable.from_rows([("a", 10.0, 20), ("b", 20.0, 10)])
    with pytest.raises(ConfigurationError):  # non-positive rate
        McsEntry("x", 0.0, 0)


def test_mcs_best_is_fastest_usable():
    table = McsTable.default()
    assert table.best(9.9) is None
    assert table.best(10.0).name == "6M"
    assert table.best(17.9).name == "12M"
    assert table.best(99.0).name == "54M"


def test_mcs_select_hysteresis():
    table = McsTable.default()
    twelve = table.entries[1]
    # upgrade to 24M (threshold 18) only once cleared by the margin
    assert table.select(18.5, twelve, hysteresis_db=2.0) is twelve
    assert table.select(20.0, twelve, hysteresis_db=2.0).name == "24M"
    # partial upgrade: SINR good for 36M raw but only 24M+margin
    assert table.select(23.0, twelve, hysteresis_db=2.0).name == "24M"
    # downgrade is immediate once below the current threshold
    assert table.select(12.0, twelve, hysteresis_db=2.0).name == "6M"
    # below the floor nothing decodes, hysteresis or not
    assert table.select(5.0, twelve, hysteresis_db=2.0) is None
    # no previous assignment: raw best
    assert table.select(18.5, None, hysteresis_db=2.0).name == "24M"


# -- ProtocolModel / coercion ----------------------------------------------

def test_protocol_model_matches_conflict_graph():
    topology = grid_topology(3, 3)
    model = ProtocolModel(hops=2)
    ours = model.conflict_graph(topology)
    theirs = conflict_graph(topology, hops=2)
    assert ours.links == theirs.links
    assert ours.pairs() == theirs.pairs()
    assert model.cache_token(topology) == 2


def test_protocol_model_validation():
    for bad in (0, -1, True, 1.5, "2"):
        with pytest.raises(ConfigurationError):
            ProtocolModel(hops=bad)


def test_coerce_interference():
    assert coerce_interference(None).hops == 2
    with pytest.raises(TypeError):
        coerce_interference(None, default_hops=3)
    protocol = ProtocolModel(1)
    assert coerce_interference(protocol) is protocol
    model = SinrModel()
    assert coerce_interference(model) is model
    for bad in (1, True, "sinr"):
        with pytest.raises(ConfigurationError,
                           match=r"ProtocolModel\(hops=k\)"):
            coerce_interference(bad)


# -- SinrModel geometry and conflicts ---------------------------------------

def test_sinr_model_validation():
    with pytest.raises(ConfigurationError):
        SinrModel(cs_multiplier=0.5)
    with pytest.raises(ConfigurationError):
        SinrModel(hysteresis_db=-1.0)
    with pytest.raises(ConfigurationError):  # undecodable link budget
        SinrModel(tx_power_dbm=-200.0)


def test_sinr_model_needs_positions():
    bare = from_edges([(0, 1), (1, 2)], name="bare")
    model = SinrModel()
    with pytest.raises(ConfigurationError, match="positions"):
        model.conflict_graph(bare)
    with pytest.raises(ConfigurationError, match="positions"):
        model.cache_token(bare)


def test_sinr_snr_math():
    model = SinrModel()
    topology = chain8()
    # 90 m at exponent 3: loss = 40 + 30*log10(90) dB
    expected = 20.0 - (40.0 + 30.0 * math.log10(SPACING)) - (-96.0)
    assert model.snr_db(topology, (0, 1)) == pytest.approx(expected)
    # an interferer two hops out drags SINR below the noise-only SNR
    assert model.sinr_db(topology, (0, 1), 3) < model.snr_db(topology,
                                                             (0, 1))


def test_sinr_conflicts_reach_past_two_hops():
    model = SinrModel()
    topology = chain8()
    graph = model.conflict_graph(topology)
    protocol = conflict_graph(topology, hops=2)
    assert graph.links == protocol.links
    # the physical truth hears further than the 2-hop abstraction here
    assert graph.num_conflicts > protocol.num_conflicts
    # shared-radio conflicts always hold
    assert graph.has_edge((0, 1), (1, 2))
    # 3-hop-separated transmitters still conflict at this spacing...
    assert graph.has_edge((0, 1), (3, 4))
    # ...but the far end of the chain does not
    assert not graph.has_edge((0, 1), (6, 7))


def test_sinr_conflict_links_subset_validated():
    model = SinrModel()
    topology = chain8()
    sub = model.conflict_graph(topology, links=[(0, 1), (1, 2)])
    assert list(sub.links) == [(0, 1), (1, 2)]
    with pytest.raises(ConfigurationError):
        model.conflict_graph(topology, links=[(0, 7)])


def test_hidden_pairs_shrink_with_carrier_sense():
    topology = chain8()
    narrow = SinrModel(cs_multiplier=1.0).hidden_node_pairs(topology)
    wide = SinrModel(cs_multiplier=2.5).hidden_node_pairs(topology)
    assert narrow and not wide
    for a, b in narrow:
        assert not set(a) & set(b)  # hidden pairs never share a radio
        cs = SinrModel(cs_multiplier=1.0).carrier_sense_range_m()
        assert topology.distance(a[0], b[0]) > cs


def test_channel_couplings_exclude_neighbours():
    topology = chain8()
    couplings = SinrModel(cs_multiplier=2.5).channel_couplings(topology)
    assert isinstance(couplings, ChannelCouplings)
    assert couplings.sense_pairs and couplings.jam_pairs
    for u, v in couplings.sense_pairs:
        assert v not in topology.graph[u]
        assert topology.distance(u, v) <= SinrModel(
            cs_multiplier=2.5).carrier_sense_range_m()
    for tx, victim in couplings.jam_pairs:
        assert victim not in topology.graph[tx]
        assert tx != victim


# -- adaptive MCS -----------------------------------------------------------

def test_link_rates_hysteresis_is_stateful():
    model = SinrModel()
    # 90 m spacing: SNR ~17.4 dB -> 12M
    rates = model.link_rates(chain_topology(3, spacing=90.0))
    assert {e.name for e in rates.values()} == {"12M"}
    # nodes move closer (80 m, SNR ~19 dB): raw best is 24M but the
    # threshold is not cleared by the 2 dB margin -> the rate holds
    rates = model.link_rates(chain_topology(3, spacing=80.0))
    assert {e.name for e in rates.values()} == {"12M"}
    # much closer (60 m, SNR ~22.7 dB): 24M clears its margin -> upgrade
    rates = model.link_rates(chain_topology(3, spacing=60.0))
    assert {e.name for e in rates.values()} == {"24M"}
    # a fresh model (no carried state) jumps straight to the raw best
    fresh = SinrModel().link_rates(chain_topology(3, spacing=80.0))
    assert {e.name for e in fresh.values()} == {"24M"}


def test_link_rates_pin_below_floor_links_to_lowest():
    # 160 m spacing: SNR ~9.9 dB, below the 6M floor, yet the topology
    # says the link decodes -- charge it the most robust rate
    model = SinrModel()
    rates = model.link_rates(chain_topology(3, spacing=160.0))
    assert {e.name for e in rates.values()} == {"6M"}


def test_sinr_metrics_are_counted():
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        model = SinrModel(cs_multiplier=1.0)
        model.conflict_graph(chain8())
        model.hidden_node_pairs(chain8())
        model.link_rates(chain_topology(3, spacing=90.0))
        model.link_rates(chain_topology(3, spacing=60.0))
        counters = registry.snapshot()["counters"]
    assert counters["phy.sinr.conflict_edges"] > 0
    assert counters["phy.sinr.hidden_pairs"] > 0
    assert counters["phy.sinr.mcs_switches"] > 0


# -- cache token ------------------------------------------------------------

def test_cache_token_tracks_physics_and_positions():
    topology = chain8()
    model = SinrModel()
    token = model.cache_token(topology)
    assert token == model.cache_token(topology)  # stable
    assert token[0] == "sinr"
    assert SinrModel(cs_multiplier=1.5).cache_token(topology) != token
    moved = chain_topology(8, spacing=SPACING + 5.0)
    assert SinrModel().cache_token(moved) != token


# -- mobility unification ---------------------------------------------------

def test_radio_range_model_shares_the_link_budget():
    model = SinrModel()
    radio = model.radio_range_model()
    assert isinstance(radio, RadioRangeModel)
    assert radio.range_m == pytest.approx(model.communication_range_m())
    via_classmethod = RadioRangeModel.from_path_loss(
        model.path_loss, model.tx_power_dbm,
        model.noise_floor_dbm + model.mcs.floor_db)
    assert via_classmethod.range_m == pytest.approx(radio.range_m)


def test_topology_stream_accepts_sinr_model():
    from repro.mobility.trace import MobilityTrace

    trace = MobilityTrace([
        (0.0, 0, 0.0, 0.0), (0.0, 1, 100.0, 0.0),
        (1.0, 0, 0.0, 0.0), (1.0, 1, 100.0, 0.0)])
    model = SinrModel()
    stream = TopologyStream(trace, radio=model)
    assert isinstance(stream.radio, RadioRangeModel)
    assert stream.radio.range_m == pytest.approx(
        model.communication_range_m())
    # 100 m < the ~158 m communication range: the link exists
    _, _, edges = stream.snapshots()[0]
    assert (0, 1) in edges


def test_interference_model_base_is_abstract():
    base = InterferenceModel()
    with pytest.raises(NotImplementedError):
        base.conflict_graph(chain8())
    with pytest.raises(NotImplementedError):
        base.cache_token(chain8())
    assert base.describe() == "abstract"

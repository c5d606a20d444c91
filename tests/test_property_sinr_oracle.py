"""Property-based tests: the SINR conflict relation against a pairwise oracle.

:meth:`~repro.phy.models.SinrModel.conflict_graph` is checked against a
direct pairwise physical-model computation written out here: received
powers in mW from the log-distance law of the model's
:class:`~repro.phy.models.PathLossModel`, the interferer's power summed
with the noise floor at the victim receiver, and each link's threshold
taken from the MCS that :meth:`~repro.phy.models.SinrModel.link_rates`
assigns it.  Two links conflict iff they share a radio or either one's
transmitter drops the other's reception below that threshold.  Checked
on small positioned random disks, over every link and over random link
subsets, for fresh models and for models whose rate hysteresis was
warmed on other positions.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import MeshTopology, random_disk_topology
from repro.phy.models import PathLossModel, SinrModel


def _received_mw(model, topology, tx, rx):
    """Power of ``tx`` at ``rx`` in mW, from the path-loss law by hand."""
    law = model.path_loss
    (xa, ya), (xb, yb) = topology.positions[tx], topology.positions[rx]
    distance = max(math.hypot(xa - xb, ya - yb), law.ref_distance_m)
    loss_db = (law.ref_loss_db + 10.0 * law.exponent
               * math.log10(distance / law.ref_distance_m))
    return 10.0 ** ((model.tx_power_dbm - loss_db) / 10.0)


def _sinr_reference(model, topology, link_list):
    """Pairwise conflict rows (positions into ``link_list``)."""
    noise_mw = 10.0 ** (model.noise_floor_dbm / 10.0)
    threshold = {link: entry.sinr_min_db for link, entry
                 in model.link_rates(topology, link_list).items()}

    def corrupts(interferer, link):
        signal_mw = _received_mw(model, topology, *link)
        floor_mw = noise_mw + _received_mw(model, topology, interferer,
                                           link[1])
        sinr_db = 10.0 * math.log10(signal_mw) - 10.0 * math.log10(floor_mw)
        return sinr_db < threshold[link]

    return [[j for j, b in enumerate(link_list)
             if b != a and (set(a) & set(b) or corrupts(b[0], a)
                            or corrupts(a[0], b))]
            for a in link_list]


@st.composite
def positioned_disks(draw):
    radio_range = draw(st.sampled_from([90.0, 150.0]))
    return random_disk_topology(
        draw(st.integers(min_value=3, max_value=9)),
        radio_range=radio_range, area=2.0 * radio_range,
        seed=draw(st.integers(min_value=0, max_value=10_000)))


@st.composite
def sinr_models(draw):
    return SinrModel(
        path_loss=PathLossModel(
            exponent=draw(st.sampled_from([2.5, 3.0, 3.7])),
            ref_loss_db=draw(st.sampled_from([40.0, 46.0]))),
        tx_power_dbm=draw(st.sampled_from([15.0, 20.0])))


def _moved(topology, data):
    """The same connectivity with every node shifted up to 30 m."""
    shift = st.floats(min_value=-30.0, max_value=30.0)
    return MeshTopology(topology.graph, {
        node: (x + data.draw(shift), y + data.draw(shift))
        for node, (x, y) in topology.positions.items()})


@settings(max_examples=60, deadline=None)
@given(positioned_disks(), sinr_models(), st.data())
def test_sinr_conflicts_match_pairwise_oracle(topology, model, data):
    links = topology.links
    requested = None
    if data.draw(st.booleans(), label="subset"):
        requested = data.draw(st.lists(st.sampled_from(links)),
                              label="links")
    if data.draw(st.booleans(), label="warm"):
        # rate hysteresis carried over from other positions
        model.link_rates(_moved(topology, data))
    link_list = links if requested is None else sorted(set(requested))
    # link_rates is idempotent for fixed positions, so the oracle's call
    # leaves the assignment conflict_graph reads unchanged
    expected = _sinr_reference(model, topology, link_list)
    index = model.conflict_graph(topology, links=requested)
    assert index.links == tuple(link_list)
    assert [[index.position(b) for b in index.neighbors(a)]
            for a in index.links] == expected

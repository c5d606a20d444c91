"""Cross-validation between conflict models and channel/SINR physics.

The scheduler's conflict graph (:mod:`repro.core.conflict`, or any
:class:`~repro.phy.models.InterferenceModel`) is an *abstraction* of the
channel: two links it declares non-conflicting must genuinely be unable
to corrupt each other's receptions.  This module is the **containment
validator** between backends -- it derives a ground-truth "can actually
interfere" relation and checks the abstraction against it:

- with no ``truth=``, the ground truth is the broadcast channel's exact
  collision rule (:func:`interference_graph`) -- the safety argument for
  running the 2-hop protocol model on this PHY (asserted by the test
  suite for every generator topology, interpreted by E11);
- with ``truth=`` an :class:`~repro.phy.models.SinrModel`, the ground
  truth is physical-model interference, and
  :func:`uncovered_interference` lists the hidden-node-style pairs the
  protocol abstraction misses (E23's headline column).

Under the channel's rules, simultaneous transmissions on directed links
``a = (ta, ra)`` and ``b = (tb, rb)`` damage at least one *intended*
reception iff any of:

- the links share a node (a radio cannot do two things at once);
- ``tb`` is a radio neighbour of ``ra`` (b's signal collides at a's
  receiver);
- ``ta`` is a radio neighbour of ``rb`` (symmetrically).

This module only states that rule as per-node link masks
(:func:`_channel_index`); the relation itself comes from the same row
kernel in :mod:`repro.core.conflict` that builds the k-hop protocol
relations, as a :class:`~repro.core.conflict.ConflictIndex`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.conflict import (ConflictIndex, _index_from_masks,
                                 _link_bits, _union)
from repro.net.topology import Link, MeshTopology
from repro.phy.models import InterferenceModel, coerce_interference


def interference_graph(topology: MeshTopology) -> ConflictIndex:
    """The exact link-interference relation implied by the channel model."""
    return _channel_index(topology, topology.links)


def _channel_index(topology: MeshTopology,
                   link_list: Sequence[Link]) -> ConflictIndex:
    """The channel rule over the sorted links ``link_list``.

    Link ``(tb, rb)`` interferes with ``(ta, ra)`` iff ``tb`` is in
    ``{ta, ra} | N(ra)`` or ``rb`` in ``{ta, ra} | N(ta)``.  Split by
    endpoint: transmitting at ``ta`` meets the links leaving ``ta`` and
    those entering ``ta`` or a neighbour of it; receiving at ``ra`` meets
    the links entering ``ra`` and those leaving ``ra`` or a neighbour.
    """
    rows = topology.rows
    out, into = _link_bits(link_list)
    tail = {node: _union(into, (node, *rows[node]), mask)
            for node, mask in out.items()}
    head = {node: _union(out, (node, *rows[node]), mask)
            for node, mask in into.items()}
    return _index_from_masks(link_list, tail, head)


def _truth_graph(topology: MeshTopology,
                 truth: Optional[object]) -> ConflictIndex:
    """The ground-truth relation: channel-exact, a model, or an index."""
    if truth is None:
        return interference_graph(topology)
    if isinstance(truth, ConflictIndex):
        return truth
    return coerce_interference(truth).conflict_graph(topology)


def uncovered_interference(topology: MeshTopology,
                           model: Optional[InterferenceModel] = None,
                           truth: Optional[object] = None
                           ) -> list[tuple[Link, Link]]:
    """Interfering link pairs the abstraction fails to separate.

    An empty list certifies that every schedule conflict-free under the
    abstraction (``model=``, default ``ProtocolModel(hops=2)``) is
    collision-free under the ground truth (the channel rule, or
    ``truth=`` -- an :class:`~repro.phy.models.InterferenceModel` or a
    prebuilt :class:`~repro.core.conflict.ConflictIndex`).  The 1-hop
    model typically leaves pairs uncovered (hidden-terminal style); the
    2-hop model covers the channel rule on every generator topology --
    but *not* necessarily an SINR ground truth, whose interference
    reaches past two hops: those uncovered pairs are exactly what E23
    measures.
    """
    physical = _truth_graph(topology, truth)
    abstraction = coerce_interference(model).conflict_graph(topology)
    return [pair for pair in physical.pairs()
            if not abstraction.has_edge(*pair)]


def overcautious_pairs(topology: MeshTopology,
                       model: Optional[InterferenceModel] = None,
                       truth: Optional[object] = None
                       ) -> list[tuple[Link, Link]]:
    """Pairs the abstraction separates although the truth never corrupts.

    This is the price of the abstraction: lost spatial reuse.  E11's
    1-hop vs 2-hop comparison quantifies it in slots; under an SINR
    truth it shows where the protocol model is *conservative* rather
    than unsafe.
    """
    physical = _truth_graph(topology, truth)
    abstraction = coerce_interference(model).conflict_graph(topology)
    return [pair for pair in abstraction.pairs()
            if not physical.has_edge(*pair)]

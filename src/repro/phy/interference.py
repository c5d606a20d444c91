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

This module only states that rule as per-link node sets
(:func:`_channel_near_sets`); the relation itself comes from the same
conflict-relation builder in :mod:`repro.core.conflict` that builds the
k-hop protocol graphs.
"""

from __future__ import annotations

from typing import Optional, Union

import networkx as nx

from repro.core.conflict import (
    _conflict_rows,
    _graph_from_edges,
    _NearSets,
    _row_edges,
    conflict_graph,
    conflicting_pairs,
)
from repro.net.topology import Link, MeshTopology

ModelLike = Union[int, "InterferenceModel", None]  # noqa: F821


def interference_graph(topology: MeshTopology) -> nx.Graph:
    """The exact link-interference relation implied by the channel model."""
    return _graph_from_edges(topology.links, _row_edges(_conflict_rows(
        topology.links, _channel_near_sets(topology))))


def _channel_near_sets(topology: MeshTopology) -> _NearSets:
    """The channel rule's near sets for a link ``(ta, ra)``.

    Outgoing links from ``{ta, ra} | N(ra)`` and incoming links into
    ``{ta, ra} | N(ta)`` interfere with it.
    """
    adjacency = topology.graph.adj

    def near(link: Link) -> tuple[set[int], set[int]]:
        ta, ra = link
        return ({ta, ra, *adjacency[ra]}, {ta, ra, *adjacency[ta]})

    return near


def _model_graph(topology: MeshTopology, hops: int,
                 model: ModelLike) -> nx.Graph:
    """The abstraction under test: k-hop by default, or any model."""
    if model is None:
        return conflict_graph(topology, hops=hops)
    from repro.phy.models import coerce_interference

    return coerce_interference(model).conflict_graph(topology)


def _truth_graph(topology: MeshTopology,
                 truth: Optional[object]) -> nx.Graph:
    """The ground-truth relation: channel-exact, a model, or a graph."""
    if truth is None:
        return interference_graph(topology)
    if isinstance(truth, nx.Graph):
        return truth
    from repro.phy.models import coerce_interference

    return coerce_interference(truth).conflict_graph(topology)


def uncovered_interference(topology: MeshTopology, hops: int = 2,
                           model: ModelLike = None,
                           truth: Optional[object] = None
                           ) -> list[tuple[Link, Link]]:
    """Interfering link pairs the abstraction fails to separate.

    An empty list certifies that every schedule conflict-free under the
    abstraction (``hops``, or ``model=``) is collision-free under the
    ground truth (the channel rule, or ``truth=`` -- an
    :class:`~repro.phy.models.InterferenceModel`, a bare hops int, or a
    prebuilt conflict graph).  The 1-hop model typically leaves pairs
    uncovered (hidden-terminal style); the 2-hop model covers the
    channel rule on every generator topology -- but *not* necessarily an
    SINR ground truth, whose interference reaches past two hops: those
    uncovered pairs are exactly what E23 measures.
    """
    physical = _truth_graph(topology, truth)
    abstraction = _model_graph(topology, hops, model)
    return [pair for pair in conflicting_pairs(physical)
            if not abstraction.has_edge(*pair)]


def overcautious_pairs(topology: MeshTopology, hops: int = 2,
                       model: ModelLike = None,
                       truth: Optional[object] = None
                       ) -> list[tuple[Link, Link]]:
    """Pairs the abstraction separates although the truth never corrupts.

    This is the price of the abstraction: lost spatial reuse.  E11's
    1-hop vs 2-hop comparison quantifies it in slots; under an SINR
    truth it shows where the protocol model is *conservative* rather
    than unsafe.
    """
    physical = _truth_graph(topology, truth)
    abstraction = _model_graph(topology, hops, model)
    return [pair for pair in conflicting_pairs(abstraction)
            if not physical.has_edge(*pair)]

"""Minimum-delay transmission ordering on scheduling trees.

The ToN 2009 companion result: finding the min-max delay transmission order
is NP-complete on general topologies, but on an overlay *tree* (the 802.16
mesh scheduling tree) an order with **zero wraps on every tree route**
exists and is computable in linear time:

1. all *uplink* links (child -> parent) ordered by **decreasing** depth of
   the child, then
2. all *downlink* links (parent -> child) ordered by **increasing** depth of
   the child.

Why this is wrap-free for every route on the tree: any tree route climbs
from the source to the lowest common ancestor and then descends.  Along the
climb, each hop's link is one level shallower than the previous, so it
appears *later* in the order (deeper uplinks first).  The climb-to-descent
transition goes from an uplink to a downlink, and all uplinks precede all
downlinks.  Along the descent each hop is one level deeper, again later in
the order (shallower downlinks first).  Every consecutive pair is therefore
ordered forward in the frame, so a packet traverses its whole route within
one frame: end-to-end delay is at most one frame length regardless of hop
count -- the property experiment E2 demonstrates against naive orderings.

"Minimum-delay" is minimum in frames: zero wraps, so at most one frame of
delay on every tree route, but not always the fewest slots.  Same-depth
ties go by link id, which on a 4-node chain with an inner gateway costs a
route 3 slots where 2 suffice (``tests/test_core_tree_order.py``'s xfails).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.ordering import TransmissionOrder
from repro.errors import ConfigurationError
from repro.net.topology import Link, hop_depths


def tree_depths(tree: Mapping[int, int], root: int) -> dict[int, int]:
    """Depth of every node of a child -> parent tree map rooted at ``root``
    (as :func:`repro.net.routing.gateway_tree` returns).

    Raises :class:`~repro.errors.ConfigurationError` when ``root`` is not
    the tree's root, or when a parent chain cycles or ends short of it.
    """
    children: dict[int, list[int]] = {}
    for child, parent in tree.items():
        children.setdefault(parent, []).append(child)
    depths = hop_depths(children, [root])
    # every child reached from a root that is nobody's child
    if len(depths) != len(tree) + 1:
        raise ConfigurationError(f"graph is not a tree rooted at {root}")
    return depths


def min_delay_tree_order(tree: Mapping[int, int],
                         root: int) -> TransmissionOrder:
    """The wrap-free total order over all directed links of the tree: at
    most one frame on every tree route, not always the fewest slots.

    ``tree`` must be a child -> parent map rooted at ``root``, as produced
    by :func:`repro.net.routing.gateway_tree`.  The order covers both
    directions of every tree edge (uplinks and downlinks).
    """
    depths = tree_depths(tree, root)
    # Deeper uplinks first; ties broken canonically for determinism.
    uplinks = sorted(tree.items(), key=lambda link: (-depths[link[0]], link))
    # Shallower downlinks first.
    downlinks = sorted(((parent, child) for child, parent in tree.items()),
                       key=lambda link: (depths[link[1]], link))
    return TransmissionOrder.from_ranking(uplinks + downlinks)


def naive_tree_order(tree: Mapping[int, int],
                     root: int) -> TransmissionOrder:
    """The *worst-case-prone* baseline: links in canonical sorted order.

    On uplink routes this tends to schedule shallow links before deep ones,
    producing roughly one wrap per hop -- the contrast case in E2/E7.
    """
    tree_depths(tree, root)  # validates tree-ness
    links: list[Link] = []
    for child, parent in tree.items():
        links.append((child, parent))
        links.append((parent, child))
    return TransmissionOrder.from_ranking(sorted(links))


def adversarial_tree_order(tree: Mapping[int, int],
                           root: int) -> TransmissionOrder:
    """The maximally wrapping order: the exact reverse of the optimal one.

    Every consecutive hop on every uplink or downlink route wraps, so an
    ``h``-hop route suffers ``h - 1`` wraps -- the upper envelope in E2.
    """
    depths = tree_depths(tree, root)
    uplinks = sorted(tree.items(), key=lambda link: (depths[link[0]], link))
    downlinks = sorted(((parent, child) for child, parent in tree.items()),
                       key=lambda link: (-depths[link[1]], link))
    return TransmissionOrder.from_ranking(downlinks + uplinks)

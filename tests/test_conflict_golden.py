"""Golden content of the conflict relations the solvers model.

No self-consistency test can tell whether a refactor changed the
*content* of a relation, so these tests pin it across commits:

- a digest of the relation -- its sorted links, then its sorted conflict
  pairs -- for each builder: the k-hop protocol model (1 and 2 hops,
  grid and chain), the channel's exact interference relation and an
  :class:`~repro.phy.models.SinrModel` on a seeded disk mesh;
- the ILP's order-variable pairs, decoded from the constraint matrix
  handed to the MILP solver, in variable order;
- the rows, as CSR arrays, of the full k-hop and exact indexes of E21's
  480-node city-scale disk: thousands of links, so every row goes through
  the wide (numpy) path of the row kernel.

A digest that moves means the schedules and probe logs of every
consumer may move with it.
"""

import hashlib
import math

import pytest

import repro.core.ilp as ilp_module
from repro.core.conflict import conflict_graph
from repro.core.ilp import SchedulingProblem, solve_schedule_ilp
from repro.net.topology import (
    chain_topology,
    grid_topology,
    random_disk_topology,
)
from repro.phy.interference import interference_graph
from repro.phy.models import SinrModel


SUBSET = [(0, 1), (1, 2), (4, 1), (5, 4), (6, 7), (8, 5)]


def _all_links(build, topology):
    return build(topology), list(topology.links)


def _disk():
    return random_disk_topology(12, radio_range=150.0, area=500.0, seed=3)


#: name -> (builder of (relation, its sorted links), relation digest, ILP
#: pair count, ILP pair digest)
GOLDEN = {
    "grid3x3-hop1": (
        lambda: _all_links(lambda t: conflict_graph(t, hops=1),
                           grid_topology(3, 3)),
        "06bceb6a2b50e4f5", 100, "d7a199ef21fca025"),
    "grid3x3-hop2": (
        lambda: _all_links(lambda t: conflict_graph(t, hops=2),
                           grid_topology(3, 3)),
        "51bc6bf6d987c308", 228, "e79fc234ffe46fe1"),
    "chain6-hop1": (
        lambda: _all_links(lambda t: conflict_graph(t, hops=1),
                           chain_topology(6)),
        "147362e6420b18b4", 21, "6b4b9497dac41a4e"),
    "chain6-hop2": (
        lambda: _all_links(lambda t: conflict_graph(t, hops=2),
                           chain_topology(6)),
        "1b56db8642155310", 33, "afa41eed01ed13db"),
    "grid3x3-subset-hop2": (
        lambda: (conflict_graph(grid_topology(3, 3), hops=2, links=SUBSET),
                 sorted(SUBSET)),
        "fff8c2347e28d792", 12, "32fde47ddffa8c94"),
    "grid3x3-exact": (
        lambda: _all_links(interference_graph, grid_topology(3, 3)),
        "74116723d8ced8f0", 164, "085d6cb8523e6d86"),
    "disk12-sinr": (
        lambda: _all_links(SinrModel().conflict_graph, _disk()),
        "ba9010d6b82c01f4", 765, "8c7fbf350971de56"),
}


class _Captured(Exception):
    """Raised by the recording solver once the model is captured."""


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _relation_digest(relation) -> str:
    """SHA-256 of the sorted links, then the sorted conflict pairs."""
    digest = hashlib.sha256()
    digest.update(repr(list(relation.links)).encode())
    digest.update(repr(relation.pairs()).encode())
    return digest.hexdigest()[:16]


def _ilp_pairs(problem, monkeypatch):
    """The ILP's order-variable pairs, decoded from its constraint matrix.

    Each pair ``(a, b)`` with order variable ``o`` contributes the row
    ``s_a - s_b + S*o`` first; pairs are numbered in variable order.
    """
    captured = {}

    def record(c, constraints, **kwargs):
        captured["matrix"] = constraints[0].A.tocsr()
        raise _Captured

    monkeypatch.setattr(ilp_module, "milp", record)
    with pytest.raises(_Captured):
        solve_schedule_ilp(problem)
    links, frame = problem.demanded_links(), problem.frame_slots
    matrix = captured["matrix"]
    pairs = []
    for row in range(0, matrix.shape[0], 2):
        start, end = matrix.indptr[row], matrix.indptr[row + 1]
        coeffs = dict(zip(matrix.indices[start:end].tolist(),
                          matrix.data[start:end].tolist()))
        a = next(col for col, v in coeffs.items() if v == 1.0)
        b = next(col for col, v in coeffs.items() if v == -1.0)
        o = next(col for col, v in coeffs.items() if v == float(frame))
        assert o == len(links) + len(pairs)  # variable order = pair order
        pairs.append((links[a], links[b]))
    return pairs


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_relation_content_is_pinned(name, monkeypatch):
    build, relation_digest, num_pairs, pair_digest = GOLDEN[name]
    relation, links = build()
    problem = SchedulingProblem(conflicts=relation,
                                demands={link: 1 for link in links},
                                frame_slots=len(links))
    pairs = _ilp_pairs(problem, monkeypatch)
    assert (_relation_digest(relation), len(pairs),
            _digest(pairs)) == (relation_digest, num_pairs, pair_digest)


#: relation -> SHA-256 of the links, then the CSR ``indptr`` and ``indices``
#: bytes, of that relation over every link of E21's 480-node disk.
E21_DISK_ROWS = {
    "hop2": "4e9c250b212f81fbcfd7718f539df502645da5b7b384539c088a6c04710656aa",
    "exact": "a0fa52217ed781504d29838c4c196ca3090b2392d1f8014781782fd739cefeee",
}


@pytest.mark.parametrize("relation", sorted(E21_DISK_ROWS))
def test_e21_disk_rows_are_pinned(relation):
    num_nodes, radio_range = 480, 100.0
    topology = random_disk_topology(
        num_nodes, radio_range=radio_range,
        area=radio_range * math.sqrt(num_nodes * math.pi / 7.0),
        seed=29 + num_nodes)
    index = (conflict_graph(topology, hops=2) if relation == "hop2"
             else interference_graph(topology))
    assert index.num_links == 3188
    digest = hashlib.sha256(repr(index.links).encode())
    digest.update(index.indptr.tobytes())
    digest.update(index.indices.tobytes())
    assert digest.hexdigest() == E21_DISK_ROWS[relation]

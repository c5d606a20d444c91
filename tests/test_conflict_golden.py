"""Golden content of the conflict relations the solvers hash and model.

:func:`~repro.core.engine.canonical_problem_key` is salted with the
package version and the source fingerprint, so every edit to ``src/``
changes every key, and no self-consistency test can tell whether a
refactor changed the *content* a key covers.  These tests pin it across
commits:

- the canonical key with the salt held fixed -- a hash over the relation
  fingerprint (sorted links, then sorted conflict pairs), the demands and
  the frame geometry -- for each builder: the k-hop protocol model (1 and
  2 hops, grid and chain), the channel's exact interference relation and
  an :class:`~repro.phy.models.SinrModel` on a seeded disk mesh;
- the ILP's order-variable pairs, decoded from the constraint matrix
  handed to the MILP solver, in variable order.

A digest that moves means the schedules, probe logs or cache keys of
every consumer may move with it.
"""

import hashlib

import pytest

import repro.core.engine as engine_module
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


#: name -> (builder of (relation, its sorted links), expected salt-pinned
#: key, ILP pair count, ILP pair digest)
GOLDEN = {
    "grid3x3-hop1": (
        lambda: _all_links(lambda t: conflict_graph(t, hops=1),
                           grid_topology(3, 3)),
        "230ce05856f2963ab5bb7b79", 100, "d7a199ef21fca025"),
    "grid3x3-hop2": (
        lambda: _all_links(lambda t: conflict_graph(t, hops=2),
                           grid_topology(3, 3)),
        "a6bf0cd6c262a1212eff2217", 228, "e79fc234ffe46fe1"),
    "chain6-hop1": (
        lambda: _all_links(lambda t: conflict_graph(t, hops=1),
                           chain_topology(6)),
        "aa831239c73b4bee6897a8aa", 21, "6b4b9497dac41a4e"),
    "chain6-hop2": (
        lambda: _all_links(lambda t: conflict_graph(t, hops=2),
                           chain_topology(6)),
        "1595fb701469a792a25593d0", 33, "afa41eed01ed13db"),
    "grid3x3-subset-hop2": (
        lambda: (conflict_graph(grid_topology(3, 3), hops=2, links=SUBSET),
                 sorted(SUBSET)),
        "76cda50e1b6f41b6cbca86cb", 12, "32fde47ddffa8c94"),
    "grid3x3-exact": (
        lambda: _all_links(interference_graph, grid_topology(3, 3)),
        "93d001c988470705cb9aa337", 164, "085d6cb8523e6d86"),
    "disk12-sinr": (
        lambda: _all_links(SinrModel().conflict_graph, _disk()),
        "7b71a85ea18124616d0c193c", 765, "8c7fbf350971de56"),
}


class _Captured(Exception):
    """Raised by the recording solver once the model is captured."""


@pytest.fixture
def pinned_salt(monkeypatch):
    monkeypatch.setattr(engine_module, "_cache_salt", lambda: "golden")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


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
def test_relation_content_is_pinned(name, pinned_salt, monkeypatch):
    build, key, num_pairs, pair_digest = GOLDEN[name]
    relation, links = build()
    problem = SchedulingProblem(conflicts=relation,
                                demands={link: 1 for link in links},
                                frame_slots=len(links))
    pairs = _ilp_pairs(problem, monkeypatch)
    assert (engine_module.canonical_problem_key(problem), len(pairs),
            _digest(pairs)) == (key, num_pairs, pair_digest)

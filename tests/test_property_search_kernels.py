"""Differential tests: the min-slot search's kernels against link-based copies.

The bounds-closed decision path reads the conflict index by position:
one :class:`~repro.core.conflict._Demanded` view per search maps the
demanded links to local indices, and first fit, the greedy clique, the
S8 check and the delay-budget check all run on those.  Each kernel is
compared here with a test-side copy of the code that resolved every link
through :meth:`~repro.core.conflict.ConflictIndex.neighbors` and
:class:`~repro.core.schedule.Schedule` objects:

- :func:`~repro.core.greedy.greedy_schedule` (all three strategies, a
  bounded and an unbounded frame): the same schedule, or the same
  :class:`~repro.errors.InfeasibleScheduleError` message;
- :meth:`~repro.core.schedule.Schedule.violations`, including scheduled
  links outside the index, which have no known conflicts;
- :func:`~repro.core.conflict._greedy_clique_demand`;
- the engine's budget check: the same verdict, every route's delay, and
  the same :class:`~repro.errors.SchedulingError` for a route through an
  undemanded link;
- the search's one pass over its demands (:func:`_demand_pass` and the
  :class:`_Demanded` view it feeds) against the separate walks it
  replaced: ``demand_lower_bound``, ``max_conflict_clique_demand``, the
  view, the first-fit orders and the clique order, with zero and
  negative demands and demanded links missing from the index.

A demanded link missing from the index raises
:class:`~repro.errors.ConfigurationError` in every kernel.  Relations
come from the k-hop protocol model and from random graphs over a
topology's links.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.conflict import (
    ConflictIndex,
    _demand_pass,
    _Demanded,
    _greedy_clique_demand,
    conflict_graph,
    max_conflict_clique_demand,
)
from repro.core.delay import path_delay_slots
from repro.core.engine import _Budgets
from repro.core.greedy import _processing_order, greedy_schedule
from repro.core.ilp import DelayConstraint
from repro.core.minslots import demand_lower_bound, minimum_slots
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import (
    ConfigurationError,
    InfeasibleScheduleError,
    SchedulingError,
)
from repro.net.routing import shortest_path_route
from repro.net.topology import (
    chain_topology,
    grid_topology,
    random_disk_topology,
)


# -- the link-based code the kernels replaced (oracle copies) -------------

def _old_processing_order(demands, strategy, rng):
    links = [l for l in sorted(demands) if demands[l] > 0]
    if strategy == "index":
        return links
    if strategy == "demand":
        return sorted(links, key=lambda l: (-demands[l], l))
    if strategy == "random":
        if rng is None:
            raise ConfigurationError("strategy='random' requires an rng")
        permutation = rng.permutation(len(links))
        return [links[i] for i in permutation]
    raise ConfigurationError(f"unknown greedy strategy {strategy!r}")


def _old_earliest_fit(busy, length, limit):
    candidate = 0
    for start, end in sorted(busy):
        if candidate + length <= start:
            break
        candidate = max(candidate, end)
    if limit is not None and candidate + length > limit:
        return None
    return candidate


def _old_violations(schedule, conflicts):
    blocks = dict(schedule.items())
    return sorted((a, b) for a in blocks if a in conflicts
                  for b in conflicts.neighbors(a)
                  if a < b and b in blocks
                  and blocks[a].overlaps(blocks[b]))


def _old_greedy_schedule(conflicts, demands, frame_slots=None,
                         strategy="demand", rng=None):
    order = _old_processing_order(demands, strategy, rng)
    starts = {}
    for link in order:
        busy = [(starts[other].start, starts[other].end)
                for other in conflicts.neighbors(link) if other in starts]
        start = _old_earliest_fit(busy, demands[link], frame_slots)
        if start is None:
            raise InfeasibleScheduleError(
                f"greedy({strategy}) could not fit link {link} "
                f"({demands[link]} slots) within {frame_slots} slots")
        starts[link] = SlotBlock(start, demands[link])
    span = max((block.end for block in starts.values()), default=1)
    schedule = Schedule(frame_slots if frame_slots is not None else span)
    for link, block in starts.items():
        schedule.assign(link, block)
    assert _old_violations(schedule, conflicts) == []
    return schedule


def _old_greedy_clique_demand(conflicts, demands, region):
    demanded = {link: d for link, d in demands.items() if d > 0}
    heaviest = sorted(demanded, key=lambda link: (-demanded[link], link))
    positions = [conflicts.position(link) for link in heaviest]
    best = max(demanded.values(), default=0)
    if best > region:
        return best
    rank = {p: i for i, p in enumerate(positions)}
    weights = [demanded[link] for link in heaviest]
    rows = conflicts._rows
    near = [sum(1 << rank[j] for j in rows[p] if j in rank)
            for p in positions]
    for start in sorted(demanded):
        weight = demanded[start]
        candidates = near[rank[conflicts.position(start)]]
        while candidates and weight <= region:
            pick = (candidates & -candidates).bit_length() - 1
            weight += weights[pick]
            candidates &= near[pick]
        if weight > best:
            best = weight
            if best > region:
                break
    return best


def _old_budget_delays(packed, frame_slots, constraints):
    """The route delays if every budget holds at the full frame, else None."""
    schedule = Schedule(frame_slots, dict(packed.items()))
    for constraint in constraints:
        if (path_delay_slots(schedule, constraint.route)
                > constraint.budget_slots):
            return None
    return [path_delay_slots(schedule, c.route) for c in constraints]


# -- the separate walks over a search's demands (oracle copies) --------------

def _walk_clique_bound(demands):
    best = 0
    per_node = {}
    for link, demand in demands.items():
        if demand < 0:
            raise ConfigurationError(f"negative demand on {link}")
        for node in link:
            per_node[node] = per_node.get(node, 0) + demand
    if per_node:
        best = max(per_node.values())
    return best


def _walk_lower_bound(demands):
    largest = max((d for d in demands.values() if d > 0), default=0)
    return max(largest, _walk_clique_bound(demands))


def _walk_view(conflicts, demands):
    """(links, demand, local, near) as the view built them with a walk
    of its own, resolving every link through ``position``."""
    links = sorted(link for link, d in demands.items() if d > 0)
    demand = [demands[link] for link in links]
    local = {link: i for i, link in enumerate(links)}
    positions = list(map(conflicts.position, links))
    at = {p: i for i, p in enumerate(positions)}
    rows = conflicts._rows
    near = [[at[q] for q in rows[p] if q in at] for p in positions]
    return links, demand, local, near


def _walk_processing_order(demand, strategy, rng):
    if strategy == "index":
        return list(range(len(demand)))
    if strategy == "demand":
        return sorted(range(len(demand)), key=lambda i: (-demand[i], i))
    if strategy == "random":
        if rng is None:
            raise ConfigurationError("strategy='random' requires an rng")
        return [int(i) for i in rng.permutation(len(demand))]
    raise ConfigurationError(f"unknown greedy strategy {strategy!r}")


def _outcome(function, *args, **kwargs):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", function(*args, **kwargs)
    except (ConfigurationError, SchedulingError) as exc:
        return type(exc), str(exc)


def _missing(conflicts, demands):
    """True when a demanded link is not a vertex of ``conflicts``."""
    return any(d > 0 and link not in conflicts
               for link, d in demands.items())


# -- instances ---------------------------------------------------------------

@st.composite
def relations(draw):
    """(topology, conflicts): a protocol-model index over all or some of
    the topology's links, or a random graph over them."""
    kind = draw(st.sampled_from(["chain", "grid", "disk"]))
    if kind == "chain":
        topology = chain_topology(draw(st.integers(2, 7)))
    elif kind == "grid":
        topology = grid_topology(draw(st.integers(2, 3)),
                                 draw(st.integers(2, 3)))
    else:
        topology = random_disk_topology(
            draw(st.integers(3, 8)), radio_range=45.0, area=80.0,
            seed=draw(st.integers(0, 10_000)))
    assume(topology.links)
    links = list(topology.links)
    if draw(st.booleans()):
        subset = draw(st.lists(st.sampled_from(links), min_size=1,
                               unique=True))
        conflicts = conflict_graph(topology, hops=draw(st.integers(1, 2)),
                                   links=subset)
    elif draw(st.booleans()):
        conflicts = conflict_graph(topology, hops=draw(st.integers(1, 2)))
    else:
        graph = nx.Graph()
        graph.add_nodes_from(links)
        pairs = [(a, b) for i, a in enumerate(links) for b in links[i + 1:]]
        graph.add_edges_from(draw(st.lists(st.sampled_from(pairs),
                                           max_size=3 * len(links))))
        conflicts = ConflictIndex.from_graph(graph)
    return topology, conflicts


@st.composite
def demand_instances(draw, inside=True):
    """(topology, conflicts, demands); with ``inside`` every demanded link
    is a vertex of ``conflicts``."""
    topology, conflicts = draw(relations())
    pool = list(conflicts.links) if inside else list(topology.links)
    demands = draw(st.dictionaries(st.sampled_from(pool),
                                   st.integers(0, 4), max_size=12))
    return topology, conflicts, demands


@st.composite
def budget_instances(draw):
    """(view, starts, frame, constraints, packed schedule)."""
    topology = grid_topology(draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    conflicts = conflict_graph(topology, hops=2)
    nodes = sorted(topology.nodes)
    region = draw(st.integers(4, 12))
    frame = draw(st.integers(region, 2 * region))
    demands = {}
    routes = []
    for ____ in range(draw(st.integers(1, 4))):
        src, dst = draw(st.lists(st.sampled_from(nodes), min_size=2,
                                 max_size=2, unique=True))
        route = tuple(shortest_path_route(topology, src, dst))
        routes.append(route)
        for link in route:
            demands[link] = draw(st.integers(0 if len(routes) > 1 else 1,
                                             3))
    constraints = [DelayConstraint(f"f{index}", route,
                                   draw(st.integers(1, 3 * frame)))
                   for index, route in enumerate(routes)]
    view = _Demanded(conflicts, demands)
    starts = [draw(st.integers(0, region - d)) for d in view.demand]
    packed = Schedule(region, {
        link: SlotBlock(start, d)
        for link, start, d in zip(view.links, starts, view.demand)})
    return view, starts, frame, constraints, packed


@st.composite
def signed_demand_instances(draw):
    """(conflicts, demands) with zero and negative demands, and demanded
    links that may be missing from ``conflicts``."""
    topology, conflicts = draw(relations())
    demands = draw(st.dictionaries(st.sampled_from(list(topology.links)),
                                   st.integers(-3, 4), max_size=12))
    if draw(st.booleans()):  # most draws: no negative demand
        demands = {link: abs(d) for link, d in demands.items()}
    return conflicts, demands


STRATEGIES = ("demand", "index", "random")


# -- the kernels against the oracle -----------------------------------------

@given(demand_instances(inside=False), st.sampled_from(STRATEGIES),
       st.one_of(st.none(), st.integers(1, 10)), st.integers(0, 2**16))
@settings(max_examples=250, deadline=None)
def test_first_fit_matches_the_link_based_packing(instance, strategy,
                                                  frame_slots, seed):
    ____, conflicts, demands = instance

    def pack(build):
        rng = np.random.default_rng(seed) if strategy == "random" else None
        outcome = _outcome(build, conflicts, demands,
                           frame_slots=frame_slots, strategy=strategy,
                           rng=rng)
        if outcome[0] == "ok":
            schedule = outcome[1]
            return "ok", schedule.frame_slots, list(schedule.items())
        return outcome

    expected = pack(_old_greedy_schedule)
    if _missing(conflicts, demands):
        # refused before any placement; the link-based packing named the
        # first missing link it reached, unless a link before it had
        # already missed the frame
        assert pack(greedy_schedule)[0] is ConfigurationError
        assert expected[0] in (ConfigurationError, InfeasibleScheduleError)
    else:
        assert pack(greedy_schedule) == expected


@given(relations(), st.data())
@settings(max_examples=250, deadline=None)
def test_violations_match_the_link_based_check(relation, data):
    topology, conflicts = relation
    frame = data.draw(st.integers(1, 8))
    schedule = Schedule(frame)
    # links outside the index are scheduled too: they never conflict
    for link in data.draw(st.lists(st.sampled_from(list(topology.links)),
                                   unique=True)):
        start = data.draw(st.integers(0, frame - 1))
        schedule.assign(link, SlotBlock(
            start, data.draw(st.integers(1, frame - start))))
    assert schedule.violations(conflicts) == _old_violations(schedule,
                                                              conflicts)


@given(demand_instances(inside=False), st.integers(1, 12))
@settings(max_examples=250, deadline=None)
def test_greedy_clique_matches_the_link_based_clique(instance, region):
    ____, conflicts, demands = instance
    outcome = _outcome(_greedy_clique_demand, conflicts, demands, region)
    expected = _outcome(_old_greedy_clique_demand, conflicts, demands,
                        region)
    if _missing(conflicts, demands):
        # both refuse; which missing link is named depends on scan order
        assert outcome[0] is expected[0] is ConfigurationError
    else:
        assert outcome == expected


@given(budget_instances())
@settings(max_examples=250, deadline=None)
def test_budget_check_matches_path_delay_slots(instance):
    view, starts, frame, constraints, packed = instance
    assert (_outcome(_Budgets(view, constraints).delays, starts,
                     view.demand, frame)
            == _outcome(_old_budget_delays, packed, frame, constraints))


def test_a_demanded_link_missing_from_the_index_is_refused():
    topology = chain_topology(4)
    conflicts = conflict_graph(topology, hops=2, links=[(0, 1), (1, 2)])
    demands = {(0, 1): 1, (2, 3): 2}
    for kernel in (lambda: _Demanded(conflicts, demands),
                   lambda: greedy_schedule(conflicts, demands),
                   lambda: _greedy_clique_demand(conflicts, demands, 4)):
        with pytest.raises(ConfigurationError, match="missing"):
            kernel()
    # undemanded links need not be in the index
    assert _greedy_clique_demand(conflicts, {(0, 1): 1, (2, 3): 0}, 4) == 1


def _view_of(view):
    return view.links, view.demand, view.local, view.near


@given(signed_demand_instances(), st.integers(0, 2**16))
@settings(max_examples=300, deadline=None)
def test_one_pass_matches_the_separate_walks(instance, seed):
    conflicts, demands = instance
    # the bounds: same value, or the same negative-demand error
    lower = _outcome(demand_lower_bound, demands)
    assert lower == _outcome(_walk_lower_bound, demands)
    clique = _outcome(max_conflict_clique_demand, demands)
    assert clique == _outcome(_walk_clique_bound, demands)
    passed = _outcome(_demand_pass, demands)
    assert passed[0] == lower[0]
    expected = _outcome(_walk_view, conflicts, demands)
    # the view, with or without the pass's demanded links: same lists, or
    # the same missing-link error (negative demands are not its check)
    assert _outcome(lambda: _view_of(_Demanded(conflicts, demands))) \
        == expected
    if passed[0] != "ok":
        return
    demanded, largest, node_clique = passed[1]
    assert max(largest, node_clique) == lower[1]
    assert node_clique == clique[1]
    assert _outcome(lambda: _view_of(_Demanded(conflicts, demands,
                                                demanded))) == expected
    if expected[0] != "ok":
        return
    view = _Demanded(conflicts, demands, demanded)
    demand = view.demand
    # first-fit decreasing and the greedy clique share one order
    assert view.heaviest == sorted(range(len(demand)),
                                   key=lambda i: (-demand[i], i))
    for strategy in STRATEGIES:
        assert list(_processing_order(
            view, strategy, np.random.default_rng(seed))) \
            == _walk_processing_order(demand, strategy,
                                      np.random.default_rng(seed))


@given(signed_demand_instances(), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_a_search_raises_what_the_walks_raised_in_the_same_order(
        instance, frame_slots):
    """A negative demand is refused first (the first one in the mapping's
    order); a demanded link missing from the index only when the search
    reads the relation, i.e. unless nothing is demanded or the node
    clique alone refutes the frame (the first missing link in canonical
    order)."""
    conflicts, demands = instance
    outcome = _outcome(minimum_slots, conflicts, demands, frame_slots)
    try:
        lower = max(1, _walk_lower_bound(demands))
    except ConfigurationError as exc:
        assert outcome == (ConfigurationError, str(exc))
        return
    demanded = sorted(link for link, d in demands.items() if d > 0)
    missing = [link for link in demanded if link not in conflicts]
    if demanded and lower <= frame_slots and missing:
        with pytest.raises(ConfigurationError) as exc:
            conflicts.position(missing[0])
        assert outcome == (ConfigurationError, str(exc.value))
    else:
        assert outcome[0] == "ok"

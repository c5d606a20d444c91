"""The library runs without :mod:`networkx`.

Only the one-way exports (``MeshTopology.graph``, ``ConflictIndex.graph``)
and ``ConflictIndex.from_graph``'s caller need it.  A subprocess blocks
the import (``sys.modules["networkx"] = None`` makes every ``import
networkx`` raise ``ImportError``) and then drives each layer that reads
a topology: the generators, survivors, edge changes, the gateway tree and
its order, the control plane, the conflict index, a scenario's schedule
and a short mobility replay.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import sys
    sys.modules["networkx"] = None

    import repro
    from repro import Flow, G711, Scenario
    from repro.core.conflict import conflict_graph
    from repro.core.ordering import schedule_from_order
    from repro.core.tree_order import min_delay_tree_order
    from repro.mesh16.frame import default_frame_config
    from repro.mesh16.network import ControlPlane
    from repro.mobility.models import RandomWaypointModel
    from repro.mobility.run import run_mobility
    from repro.mobility.stream import RadioRangeModel, TopologyStream
    from repro.net.routing import gateway_tree
    from repro.net.topology import (
        binary_tree_topology, chain_topology, from_edges, grid_topology,
        random_disk_topology, star_topology, surviving_topology)

    topologies = [chain_topology(5), grid_topology(3, 3), star_topology(4),
                  binary_tree_topology(2),
                  random_disk_topology(12, 250.0, 500.0, seed=3),
                  from_edges([(0, 1), (1, 2), (2, 0)])]
    grid = topologies[1]
    survivor, unreachable = surviving_topology(grid, dead_nodes=[4])
    assert unreachable == {4} and 4 not in survivor.rows
    changed = grid_topology(3, 3)
    changed.apply_edge_changes(add=[(0, 8)], remove=[(0, 1)])
    assert changed.mutations == 1 and changed.has_link((8, 0))

    for topology in topologies:
        tree = gateway_tree(topology, 0)
        order = min_delay_tree_order(tree, 0)
        conflicts = conflict_graph(topology, hops=2)
        schedule = schedule_from_order(conflicts, dict.fromkeys(
            order.links(), 1), 4 * len(order.links()), order)
        assert schedule.violations(conflicts) == []
        plane = ControlPlane(topology, 0, default_frame_config())
        assert plane.parent(0) is None
        assert all(plane.parent(n) == tree[n] for n in tree)

    scenario = Scenario(topology=chain_topology(4), flows=[
        Flow("voip", src=0, dst=3, rate_bps=G711.wire_rate_bps,
             delay_budget_s=0.1)])
    assert scenario.route().schedule().feasible

    stream = TopologyStream(RandomWaypointModel(12, 500.0, 10.0, 0.5,
                                                seed=2),
                            RadioRangeModel(220.0), dt=0.25)
    result = run_mobility(stream, [Flow("mob", 3, 0, rate_bps=80_000,
                                        delay_budget_s=0.3)])
    assert result.conflict_ok

    for export in (lambda: grid.graph, lambda: conflicts.graph):
        try:
            export()
        except ImportError:
            pass
        else:
            raise AssertionError("an export built without networkx")
    print("ok")
""")


def test_library_runs_with_networkx_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"

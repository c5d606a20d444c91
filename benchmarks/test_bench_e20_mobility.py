"""E20 (extension): guaranteed QoS while the mesh itself moves.

Expected shape: at every swept node speed the live schedule stays
S8-conflict-free and every carried flow inside its delay budget -- the
paper's guarantee claim extended to time-varying topologies.  Gateway
re-selection climbs steeply with speed.
"""

from conftest import run_experiment

from repro.analysis.experiments import e20_mobility


def test_bench_e20_mobility(benchmark):
    result = run_experiment(benchmark, e20_mobility)
    assert any(row[0] >= 10.0 for row in result.rows), \
        "the sweep reaches vehicular speeds"
    for (speed, batches, events, local, resolve, ____, reselect,
         goodput, conflict_ok, guarantee_ok, index_builds) in result.rows:
        assert conflict_ok and guarantee_ok, \
            f"schedule validity must survive mobility at {speed} m/s"
        assert 0.0 <= goodput <= 1.0
        if speed == 0.0:
            assert batches == 0 and reselect == 0, \
                "a static field generates no topology churn"
            continue
        assert batches > 0 and events > 0, \
            f"motion at {speed} m/s must churn the topology"
        assert local + resolve == batches, \
            "every churn batch is answered by a repair strategy"
    speeds = [row[0] for row in result.rows]
    resel = {row[0]: row[6] for row in result.rows}
    assert resel[max(speeds)] > resel[min(speeds)], \
        "gateway re-selection grows with node speed"

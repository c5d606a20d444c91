"""Golden digests of admission-control decision sequences.

Every admission decision of :class:`~repro.core.admission.AdmissionController`
is one min-slot search, and nearly all of them close on the search's
bounds (greedy clique floor, packing certificate) with no ILP.  A
speed-up of that path must leave every decision exactly as it was, so
these tests pin, per call sequence, a SHA-256 over every decision
(``try_admit`` and ``release``):

- whether the call was admitted and the controller's ``slots_used``;
- the controller's schedule as :meth:`~repro.core.schedule.Schedule.to_dict`;
- the search's probe log, ``lower_bound`` and solver status.

The sequences are those of the ``voip-admission`` benchmark: twelve G.729
gateway calls offered on a 2x4 grid, every other admitted call released,
the rejected calls offered again.  Two tight-budget sequences push the
search past first-fit: one is decided by the packing descent, the other
reaches the certificate ladder's greedy rung and the ILP gap search.
"""

import hashlib

import pytest

import repro.core.admission as admission_module
from repro import obs
from repro.core.admission import AdmissionController
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow
from repro.net.topology import grid_topology
from repro.sim.random import RngRegistry
from repro.traffic.voip import G729


def _calls(topology, seed: int, budget_s: float, offered: int = 12):
    """The benchmark's call list: alternating calls to and from node 0."""
    rng = RngRegistry(seed=seed).stream("calls")
    calls = []
    for index in range(offered):
        other = int(rng.choice([n for n in topology.nodes if n != 0]))
        src, dst = (0, other) if index % 2 else (other, 0)
        calls.append(Flow(f"call{index}", src, dst,
                          rate_bps=G729.wire_rate_bps,
                          delay_budget_s=budget_s))
    return calls


def _play(topology, calls, monkeypatch):
    """Digest of every decision of the offer/release/re-offer sequence,
    and the counters the sequence produced."""
    frame = default_frame_config()
    searches = []
    search = admission_module.minimum_slots

    def recording(*args, **kwargs):
        result = search(*args, **kwargs)
        searches.append(result)
        return result

    monkeypatch.setattr(admission_module, "minimum_slots", recording)
    controller = AdmissionController(
        topology, frame_slots=frame.data_slots,
        frame_duration_s=frame.frame_duration_s,
        slot_capacity_bits=frame.data_slot_capacity_bits)
    digest = hashlib.sha256()

    def record(kind: str, name: str, admitted: bool) -> None:
        result = searches[-1]
        schedule = controller.schedule
        digest.update(repr((
            kind, name, admitted, controller.slots_used,
            None if schedule is None else schedule.to_dict(),
            result.probes, result.lower_bound,
            None if result.ilp is None else result.ilp.solver_status,
        )).encode())

    registry = obs.MetricsRegistry()
    admitted, rejected = [], []
    with obs.use_registry(registry):
        for flow in calls:
            decision = controller.try_admit(flow)
            record("offer", flow.name, decision.admitted)
            (admitted if decision.admitted else rejected).append(flow)
        for flow in admitted[::2]:
            before = len(searches)
            controller.release(flow.name)
            if len(searches) > before:
                record("release", flow.name, True)
        for flow in rejected:
            decision = controller.try_admit(flow)
            record("reoffer", flow.name, decision.admitted)
    return digest.hexdigest()[:16], registry.snapshot()["counters"]


#: voip-admission pool seed -> digest of its decision sequence
POOL_GOLDEN = {
    8: "83569e341363c49b",
    11: "ef4da76f2cc4ecc1",
    12: "ee27d9d1160eb1b5",
    13: "656f98964b24b282",
    14: "3b5bdde3a529ff93",
    19: "232880dfe8da6eba",
}


@pytest.mark.parametrize("seed", sorted(POOL_GOLDEN))
def test_voip_admission_pool_decisions_are_pinned(seed, monkeypatch):
    topology = grid_topology(2, 4)
    digest, ____ = _play(topology, _calls(topology, seed, 0.05),
                         monkeypatch)
    assert digest == POOL_GOLDEN[seed]


def test_tight_budget_descent_decisions_are_pinned(monkeypatch):
    """12 ms budgets on the 2x4 grid: first-fit misses a budget, the
    packing descent closes every such search, no ILP runs."""
    topology = grid_topology(2, 4)
    digest, counters = _play(topology, _calls(topology, 11, 0.012),
                             monkeypatch)
    assert counters["core.minslots.packing_nodes"] > 0
    assert "core.engine.ilp_probes" not in counters
    assert digest == "b144ba9a3743d8ad"


def test_tight_budget_gap_decisions_are_pinned(monkeypatch):
    """15 ms budgets on the 3x3 grid: some searches reach the greedy rung,
    and one (call6) probes the ILP upward from the floor, feasible at
    its first probe."""
    topology = grid_topology(3, 3)
    digest, counters = _play(topology, _calls(topology, 10, 0.015),
                             monkeypatch)
    assert counters["core.minslots.greedy_rung_closed"] > 0
    assert counters["core.engine.ilp_probes"] > 0
    assert digest == "650e235ea46f97bd"

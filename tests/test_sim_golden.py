"""Golden digests of packet-level runs of both MAC stacks.

Every simulated statistic the experiment tables read comes out of
:func:`~repro.analysis.scenarios.run_tdma_scenario` and
:func:`~repro.analysis.scenarios.run_dcf_scenario`.  A speed-up of the
event kernel, the channel or either MAC must leave those runs exactly as
they were, so these tests pin, per run, a SHA-256 over:

- every trace record ``(time, category, fields)``, minus the ``frame``
  field (frame ids come from a process-wide counter, so they depend on
  what else ran in the process);
- the scenario's ``extras``;
- per flow: ``sent``, ``received``, ``max_delay_s`` and ``p95_delay_s``;
- the simulator's executed-event and scheduled-event counts.

Only ``repr`` of built-in values is hashed (``_canonical`` refuses
anything else), so the digests depend on no object's ``repr`` and no
library's formatting.  The runs cover the TDMA emulation plain, with
channel errors and with slot-level ARQ over those errors (so fragments
are retransmitted), and DCF plain, widened by an
:class:`~repro.phy.models.SinrModel` and with RTS/CTS on every unicast
frame (the NAV path), each for one simulated second on two seeds.
"""

import dataclasses
import hashlib

import pytest

import repro.analysis.scenarios as scenarios
from repro.analysis.scenarios import (
    make_voip_flows,
    run_dcf_scenario,
    run_tdma_scenario,
    schedule_for_flows,
)
from repro.dot11.params import DOT11B_PARAMS
from repro.mesh16.frame import default_frame_config
from repro.net.topology import grid_topology
from repro.phy.models import SinrModel
from repro.sim.random import RngRegistry
from repro.traffic.voip import G729


SEEDS = (3, 11)

_BUILTIN = (bool, int, float, str, type(None))


def _canonical(value):
    """``value`` with every container rebuilt; non-built-in leaves raise."""
    if type(value) in _BUILTIN:
        return value
    if type(value) in (tuple, list):
        return type(value)(_canonical(v) for v in value)
    if type(value) is dict:
        return {_canonical(k): _canonical(v) for k, v in value.items()}
    raise TypeError(f"cannot hash {type(value).__name__} {value!r}")


@pytest.fixture(scope="module")
def mesh():
    topology = grid_topology(3, 3)
    # four calls fit the 8-slot ARQ frame; DCF carries eight, enough
    # contention for retries and hidden-node jams
    flows = {calls: make_voip_flows(topology, calls, RngRegistry(seed=13),
                                    codec=G729, gateway=0,
                                    delay_budget_s=0.1)
             for calls in (4, 8)}
    frames = {}
    for slots in (16, 8):
        frame = default_frame_config(data_slots=slots)
        frames[slots] = (frame, schedule_for_flows(topology, flows[4], frame,
                                                   method="ilp"))
    return topology, flows, frames


@pytest.fixture
def simulators(monkeypatch):
    """Every :class:`Simulator` a scenario runner builds, in order."""
    built = []

    class Recorded(scenarios.Simulator):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(scenarios, "Simulator", Recorded)
    return built


def _digest(result, sim) -> str:
    records = [(r.time, r.category,
                {k: v for k, v in r.fields.items() if k != "frame"})
               for r in result.trace.records()]
    qos = [(name, q.sent, q.received, q.max_delay_s, q.p95_delay_s)
           for name, q in sorted(result.qos.items())]
    payload = _canonical([records, result.extras, qos,
                          (sim.events_executed, sim._seq)])
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _tdma(mesh, seed, slots=16, **kwargs):
    topology, flows, frames = mesh
    frame, schedule = frames[slots]
    return run_tdma_scenario(topology, flows[4], frame, schedule, 1.0,
                             seed=seed, codec=G729, **kwargs)


def _dcf(mesh, seed, **kwargs):
    topology, flows, ____ = mesh
    return run_dcf_scenario(topology, flows[8], 1.0, seed=seed, codec=G729,
                            **kwargs)


RUNS = {
    "tdma": lambda mesh, seed: _tdma(mesh, seed),
    "tdma-arq": lambda mesh, seed: _tdma(mesh, seed, slots=8, arq=True,
                                         channel_error_rate=0.05),
    "tdma-errors": lambda mesh, seed: _tdma(mesh, seed,
                                            channel_error_rate=0.05),
    "dcf": lambda mesh, seed: _dcf(mesh, seed),
    "dcf-sinr": lambda mesh, seed: _dcf(mesh, seed,
                                        interference=SinrModel()),
    "dcf-rts": lambda mesh, seed: _dcf(
        mesh, seed,
        params=dataclasses.replace(DOT11B_PARAMS, rts_threshold_bits=0)),
}

GOLDEN = {
    ("tdma", 3):
        "1d2f7c211b6b73e73fb7f64708bbe4bab79dadf0a929f2c6743faaa2493a449c",
    ("tdma", 11):
        "84a57f269473fce2cb0124bc63f2314b53b62e95bed1280e59329c17760b8b52",
    ("tdma-arq", 3):
        "c21c548e28b008d0eba94e45d54e7fefd0e85b1918ad48054b5d0f391b6f688f",
    ("tdma-arq", 11):
        "00ce4c9a00484c8468a116019756f6ce33f14571d8b7c38de121ce96a8fa9099",
    ("tdma-errors", 3):
        "b9bdf1efb47a78f67918318d2d082883897186616e68f51ae63a90c3021e37fc",
    ("tdma-errors", 11):
        "81917f1055f7011bb893cfa23f411e39fd70b651e4ee376867d4e91f069385b1",
    ("dcf", 3):
        "a145fcee1b77888e890216427e062d072c0366491e278cde107e7ebd4bb82dc9",
    ("dcf", 11):
        "c58640123caeca993774f811e68087d5241c9a0a92e0310e442cc8ee9fd27ee4",
    ("dcf-sinr", 3):
        "413bb92f81a1b932fa182fd84e6258f9bafa727968f3dd36d1d037e6689145ab",
    ("dcf-sinr", 11):
        "e94b5ea19fd45f106f0d33619f0e66702cc9acb3431a5a90917c875ac221a008",
    ("dcf-rts", 3):
        "19359068563d6be8b23489ef5f1b5b8edebb50efb6acc7a4fc9f8db2a6486b72",
    ("dcf-rts", 11):
        "e1a252421c0833c798af9edc2060fe50a9fa51b16d7da34eaf10b5af35af9cbb",
}


@pytest.mark.parametrize("run,seed", sorted(GOLDEN),
                         ids=[f"{r}-seed{s}" for r, s in sorted(GOLDEN)])
def test_run_digest_is_pinned(mesh, simulators, run, seed):
    result = RUNS[run](mesh, seed)
    assert len(simulators) == 1
    assert _digest(result, simulators[0]) == GOLDEN[run, seed]


def test_runs_exercise_the_paths_they_pin(mesh):
    """Each variant reaches the code path it is in the table for."""
    seed = SEEDS[0]
    assert RUNS["tdma-arq"](mesh, seed).extras["arq_retransmissions"] > 0
    errors = RUNS["tdma-errors"](mesh, seed)
    assert errors.trace.count("phy.rx_channel_error") > 0
    dcf = RUNS["dcf"](mesh, seed)
    assert dcf.extras["collisions"] > 0 and dcf.trace.count("mac.retry") > 0
    assert RUNS["dcf-sinr"](mesh, seed).extras["jams"] > 0
    rts = RUNS["dcf-rts"](mesh, seed)
    assert rts.trace.count("mac.tx_rts") > 0
    assert rts.trace.count("mac.cts_timeout") > 0

"""Serial ≡ ``--jobs 2`` for every experiment, shape-checked and pinned.

Each case runs one declared experiment (see
:data:`repro.analysis.experiments.ALL_EXPERIMENTS`) at its reduced
parameters through :func:`run_experiments` twice, in-process
(``jobs=1``) and across two worker processes (``jobs=2``), with the
result cache off.  The serial table must pass the declaration's shape
check, the two tables must be equal row for row, and the rows must hash
to the pinned SHA-256, so a change that moves a table shows up here even
when it moves serial and sharded alike.  A declaration's trailing
wall-clock columns (E10's ``ilp_seconds``/``bf_seconds``, E21's
``solve_s``/``greedy_s``) are excluded from the comparison and from the
digest.

Claims that are not table cells read the metrics of the serial run:
E5 and E12 decide every offered call by one min-slot search, with no
ILP and no probe timeout, so each rejection is a proof; E10 closes
every search between its bounds without an ILP probe.

Re-pin a digest only for a deliberate change to that table, named in
CHANGES.md::

    PYTHONPATH=src python -c "from tests.test_experiment_identity \
import _print_digests; _print_digests()"
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import obs
from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.runtime.runner import run_experiments

#: experiment -> SHA-256 of its reduced-parameter table
PINNED = {
    "E1": "cf59ccb25a78e2f00af6ccea367efb8dab66440275299983d7c4553b9f842299",
    "E2": "a65d7c97bcf50aa551ac8e476f68de609793e9a2780ad1fceabdf65a7b901a9c",
    "E3": "31ce7a161a10922ab3c3b219c9b4fede54e40dbb733f0af347f799cdb55c0e7d",
    "E4": "5c61e39180b954f0c9f8e717a6db6bef0142ad1e06cd10347da9618d4b6561fb",
    "E5": "aaa550f1fc2f16c2bf31db7428992a83b3095d122a09de47e4feecbaa3d9b7cd",
    "E6": "f7e5226dac794073547b6166b91e627467eed1eaf748d65eec5f91b395395907",
    "E7": "224e65799253446a837651daebbb97ce79ab0ab0eea1fc49469db4d20738dbe1",
    "E8": "45ff3075c19d8e3b35b3f37ce8bb360111d1ccb6666a22f1003d65e36201233a",
    "E9": "da1e2f98f4e4546e64cabc258db5980564b9ed93c767c7e088e420c377fa60e2",
    "E10": "4c12da47703aedc9909b4a85d34382bc847ca8bf359ed14d4c00b10da1e208b2",
    "E11": "72614720c05676de473f7f1bcd2e656cf7194c9260c033f54ece039e95d2e371",
    "E12": "917e58c39ba6e7eabb8f15aeac8a09f787cc1042cbc99928997cd022a1222aef",
    "E13": "9aa15204176a8dafbb0872ce72698d15b841e337fc60aedb06f133df503982a7",
    "E14": "2f81333e7d662c4d8a2a10f7ba745ed73332f60b7d14741a3e76000c71a982d6",
    "E15": "3f51135796565d0d521ab366baf56e7923b24b8e53f52fab6fcf0964ce3ac965",
    "E16": "679095e7e7b5157bcb58d6ebe88527465294a6fde3edb33eec903df8eb918b2a",
    "E17": "c7250d6bcf7eed7af19e0597515b17adc47b079034dfbc1804bc3d924d1ee8b2",
    "E18": "f46a1f1c574add4a8c3b1d890b34401579ee78f90aa485d87f238e244dd9303b",
    "E19": "65054de7d9e8333063a5f6235f8905438842d29f2ea97b481384a49a0350ced2",
    "E20": "d9b0ccda95d00777bdc78e60f2707591c7f352e53f393cfe860e3f3d1da0d00e",
    "E21": "cd265eaebe70f0538ec09ef63ffc93d92727f026125886b30147856412a6fb52",
    "E23": "28f44fae296733948ca4653f5869942131f2d8c6be0e2049402e03899bae3aa1",
}


def _decided_by_one_search_each(counters, reduced) -> None:
    """Every offered call was decided by one min-slot search, no ILP ran,
    and no probe ran out of its node budget, so each rejection is a
    proof."""
    assert counters.get("core.ilp.solves", 0) == 0
    assert counters.get("core.minslots.searches") == sum(
        reduced["call_counts"])
    assert "core.minslots.probe_timeouts" not in counters


def _closed_between_bounds(counters, reduced) -> None:
    """Every search closes between the greedy-clique floor and a packing
    certificate, so no search pays an ILP probe."""
    assert counters.get("core.minslots.bounds_closed", 0) > 0
    assert counters.get("core.engine.ilp_probes", 0) == 0


#: experiment -> check over the serial run's metrics counters
COUNTER_CLAIMS = {
    "E5": _decided_by_one_search_each,
    "E10": _closed_between_bounds,
    "E12": _decided_by_one_search_each,
}


def _deterministic(result, wall_columns: int):
    keep = len(result.headers) - wall_columns
    return (list(result.headers[:keep]),
            [list(row[:keep]) for row in result.rows])


def _digest(headers, rows) -> str:
    blob = json.dumps([headers, rows], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _table(experiment: str, jobs: int, cache_dir, metrics=None):
    outcome, = run_experiments(
        [experiment], jobs=jobs, use_cache=False, cache_dir=str(cache_dir),
        params=ALL_EXPERIMENTS[experiment].reduced, metrics=metrics)
    assert outcome.ok, outcome.error
    return outcome.result


def _print_digests() -> None:  # pragma: no cover - maintenance helper
    import tempfile

    for experiment, declared in ALL_EXPERIMENTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            result = _table(experiment, 1, tmp)
        print(experiment,
              _digest(*_deterministic(result, declared.wall_columns)))


@pytest.mark.parametrize("experiment", sorted(ALL_EXPERIMENTS))
def test_serial_and_sharded_tables_identical_and_pinned(experiment,
                                                        tmp_path):
    declared = ALL_EXPERIMENTS[experiment]
    registry = obs.MetricsRegistry()
    result = _table(experiment, 1, tmp_path / "serial", registry)
    declared.check(result)
    if experiment in COUNTER_CLAIMS:
        COUNTER_CLAIMS[experiment](registry.snapshot()["counters"],
                                   declared.reduced)
    serial = _deterministic(result, declared.wall_columns)
    sharded = _deterministic(_table(experiment, 2, tmp_path / "sharded"),
                             declared.wall_columns)
    assert serial == sharded
    assert _digest(*serial) == PINNED[experiment]

"""Serial ≡ ``--jobs 2`` for the sharded experiment tables, with pinned rows.

Each case runs one experiment through :func:`run_experiments` twice,
in-process (``jobs=1``) and across two worker processes (``jobs=2``),
with the result cache off.  The two tables must be equal row for row,
and the rows must hash to the pinned SHA-256, so a change that moves a
table shows up here even when it moves serial and sharded alike.

E5 and E12 run at two offered loads each, one below and one past
the 7-call admission limit.  E17 runs five calls at two churn rates,
the faster of which parks flows and falls back to full re-solves, so
the repair engine's local, resolve and ``peek_resolve`` paths all
feed the pinned table.  The last two columns of E10
(``ilp_seconds``, ``bf_seconds``) and of E21 (``solve_s``,
``greedy_s``) are wall-clock timings: they are excluded from the
comparison and from the digest.
Parameters are the reduced ones the CI smoke runs used.

Re-pin a digest only for a deliberate change to that table, named in
CHANGES.md::

    PYTHONPATH=src python -c "from tests.test_experiment_identity \
import _print_digests; _print_digests()"
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.runtime.runner import run_experiments

#: experiment -> (params, trailing wall-clock columns, pinned digest)
CASES = {
    "E5": ({"call_counts": [2, 8], "duration_s": 1.0}, 0,
        "aaa550f1fc2f16c2bf31db7428992a83b3095d122a09de47e4feecbaa3d9b7cd"),
    "E10": ({"grid_sizes": [[2, 2], [3, 3]]}, 2,
        "4c12da47703aedc9909b4a85d34382bc847ca8bf359ed14d4c00b10da1e208b2"),
    "E12": ({"call_counts": [4, 8], "duration_s": 1.0}, 0,
        "0c5c3aa00f3e384dfcd6a78c6186baa83f8a155c6aa26b9342b4b3943b50f43d"),
    "E14": ({}, 0,
        "2f81333e7d662c4d8a2a10f7ba745ed73332f60b7d14741a3e76000c71a982d6"),
    "E17": ({"churn_rates": [4.0, 16.0], "num_calls": 5}, 0,
        "c7250d6bcf7eed7af19e0597515b17adc47b079034dfbc1804bc3d924d1ee8b2"),
    "E18": ({}, 0,
        "f46a1f1c574add4a8c3b1d890b34401579ee78f90aa485d87f238e244dd9303b"),
    "E19": ({}, 0,
        "65054de7d9e8333063a5f6235f8905438842d29f2ea97b481384a49a0350ced2"),
    "E20": ({}, 0,
        "d9b0ccda95d00777bdc78e60f2707591c7f352e53f393cfe860e3f3d1da0d00e"),
    "E21": ({"sizes": [[24, 16], [60, 45]]}, 2,
        "cd265eaebe70f0538ec09ef63ffc93d92727f026125886b30147856412a6fb52"),
    "E23": ({"cs_multipliers": [1.0, 2.5], "duration_s": 1.0}, 0,
        "28f44fae296733948ca4653f5869942131f2d8c6be0e2049402e03899bae3aa1"),
}


def _deterministic(result, wall_columns: int):
    keep = len(result.headers) - wall_columns
    return (list(result.headers[:keep]),
            [list(row[:keep]) for row in result.rows])


def _digest(headers, rows) -> str:
    blob = json.dumps([headers, rows], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _table(experiment: str, jobs: int, cache_dir):
    params, _, _ = CASES[experiment]
    outcome, = run_experiments([experiment], jobs=jobs, use_cache=False,
                               cache_dir=str(cache_dir), params=params)
    assert outcome.ok, outcome.error
    return outcome.result


def _print_digests() -> None:  # pragma: no cover - maintenance helper
    import tempfile

    for experiment, (_, wall_columns, _) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            result = _table(experiment, 1, tmp)
        print(experiment, _digest(*_deterministic(result, wall_columns)))


def _check_rows(experiment: str, headers, rows) -> None:
    column = {name: index for index, name in enumerate(headers)}
    assert rows, f"{experiment} produced no rows"
    if experiment == "E5":
        # every admitted call meets its delay and loss targets
        for row in rows:
            assert row[column["tdma_ok"]] == row[column["tdma_admitted"]], row
    if experiment == "E17":
        # the live schedule stays S8-clean and every carried call meets
        # its guarantee after every fault event
        for row in rows:
            assert row[column["conflict_ok"]] is True, row
            assert row[column["guarantee_ok"]] is True, row
    if experiment == "E21":
        # every emitted schedule is S8 conflict-free and meets S30
        for row in rows:
            assert row[column["s8_ok"]] is True, row
            assert row[column["s30_ok"]] is True, row
    if experiment == "E23":
        # the SINR truth exposes pairs the 2-hop model misses, and the
        # SINR-backend schedule is S8-clean against its own graph
        for row in rows:
            assert row[column["uncovered"]] > 0, row
            assert row[column["sinr_s8_ok"]] is True, row


@pytest.mark.parametrize("experiment", sorted(CASES))
def test_serial_and_sharded_tables_identical_and_pinned(experiment,
                                                        tmp_path):
    _, wall_columns, pinned = CASES[experiment]
    serial = _deterministic(_table(experiment, 1, tmp_path / "serial"),
                            wall_columns)
    sharded = _deterministic(_table(experiment, 2, tmp_path / "sharded"),
                             wall_columns)
    assert serial == sharded
    _check_rows(experiment, *serial)
    assert _digest(*serial) == pinned

"""Module-level task targets for the runtime tests.

Worker processes re-import task callables by ``module:qualname``, so
anything dispatched with ``jobs > 1`` must live at module level --
closures defined inside a test function cannot cross the process
boundary.  These helpers are deliberately tiny and deterministic.
"""

from __future__ import annotations

import os
import pathlib
import time


def add(a: int, b: int) -> int:
    return a + b


def sleep_for(seconds: float) -> str:
    time.sleep(seconds)
    return f"slept {seconds}"


def metrics_scenario(rngs) -> dict[str, float]:
    """A replicate()-style scenario: metrics derived from the seed."""
    draw = float(rngs.stream("x").random())
    return {"value": draw, "shifted": 5.0 + draw}


def seed_echo(rngs, offset: float = 0.0) -> dict[str, float]:
    return {"seed_draw": float(rngs.stream("s").random()) + offset}


def boom() -> None:
    raise RuntimeError("kaboom")


def boom_scenario(rngs) -> dict[str, float]:
    raise RuntimeError("kaboom")


def die() -> None:
    """Kill the worker process outright, as a hard crash would."""
    os._exit(3)


def flaky(sentinel_dir: str, fail_times: int = 2) -> str:
    """Fail the first ``fail_times`` calls, then succeed.

    Cross-process state lives in sentinel files: every attempt drops
    one, and the call succeeds once enough are present.  Works the same
    in serial and pool mode.
    """
    directory = pathlib.Path(sentinel_dir)
    directory.mkdir(parents=True, exist_ok=True)
    attempt_marks = len(list(directory.glob("attempt-*")))
    (directory / f"attempt-{attempt_marks}-{os.getpid()}-"
     f"{time.monotonic_ns()}").touch()
    if attempt_marks < fail_times:
        raise RuntimeError(f"flaky failure #{attempt_marks + 1}")
    return "recovered"


def unpicklable_value() -> object:
    """Returns something no JSON encoder or pickler wants to touch."""
    return lambda: None


def cache_writer_sweep(cache_dir: str, num_tasks: int) -> int:
    """Run an ``add`` sweep against a (possibly shared) cache directory.

    Used by the concurrent-writer race test: two processes call this
    simultaneously with the *same* arguments, so both compute the same
    keys and race on every cache write.  Returns the number of ok/cached
    results so the parent can assert the sweep itself succeeded.
    """
    from repro.runtime.cache import ResultCache
    from repro.runtime.pool import run_tasks
    from repro.runtime.tasks import make_task

    tasks = [make_task("tests.runtime_helpers:add", {"a": i, "b": i})
             for i in range(num_tasks)]
    results = run_tasks(tasks, jobs=1, cache=ResultCache(cache_dir))
    return sum(1 for r in results if r.ok)

"""Deterministic, seeded fault injection for the runtime itself.

PR 2 and PR 4 inject faults into the *mesh*; this module injects them
into the *machinery that produces the result tables*: worker crashes,
hangs past the task timeout, transient exceptions, torn cache and
ledger writes, and a full disk.  A :class:`ChaosPolicy` is handed to
:func:`repro.runtime.pool.run_tasks`, which consults it at every
fault site.

Decisions are **content-keyed**, not drawn from mutable RNG state:
whether fault ``site`` fires for task ``key`` on attempt ``k`` is a
pure function of ``(policy.seed, site, key, k)``.  The same chaos
schedule therefore hits the same tasks in the same way regardless of
worker count, dispatch order, or how many other tasks run alongside --
which is what lets experiment E22 demand *bitwise identical* sweep
tables under chaos, serial or parallel.

The robustness contract the policy exists to prove:

- any chaos schedule that stops injecting within the retry budget
  (``max_attempt <= retries``) yields results bitwise identical to a
  chaos-free run;
- a schedule that exhausts the budget ("fatal chaos") fails loudly:
  the task's outcome is ``"failed"`` with the injected error recorded
  in the run ledger -- never a silently missing or corrupt row.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.errors import ConfigurationError, TransientTaskError

#: Exit status a chaos-crashed worker process dies with (``os._exit``).
CHAOS_EXIT_CODE = 117

#: Fault sites a :class:`ChaosPolicy` can fire at.
CHAOS_SITES = ("task", "cache_write", "ledger_write")


class InjectedTransientError(TransientTaskError):
    """A chaos-injected failure that retrying is expected to clear."""


class InjectedWorkerCrash(TransientTaskError):
    """Serial-mode stand-in for a worker process dying mid-task.

    In parallel mode a chaos crash is the real thing -- the worker
    calls ``os._exit`` and the pool is rebuilt.  Serial mode has no
    second process to kill, so the crash surfaces as this (retryable)
    exception instead; either way one attempt is consumed.
    """


class InjectedHang(Exception):
    """Serial-mode stand-in for a task hanging past ``timeout_s``.

    Parallel workers really sleep (and get timed out and abandoned by
    the parent); the serial loop raises this instead and records the
    task as ``"timeout"`` without sleeping, so chaos tests are instant.
    Deliberately *not* a :class:`~repro.errors.TransientTaskError`:
    timeouts are only retried under ``retry_timeouts=True``.
    """


def deterministic_unit(*parts: object) -> float:
    """A uniform draw in ``[0, 1)`` keyed purely by ``parts``.

    Shared by chaos decisions and backoff jitter so nothing in the
    runtime consumes mutable RNG state -- repeated calls with the same
    parts give the same value on any machine, in any order.
    """
    blob = ":".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8],
                          "big") / 2.0 ** 64


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded fault-injection schedule for the execution runtime.

    Rates are per-site probabilities in ``[0, 1]``.  The three task
    faults (``crash``, ``hang``, ``transient``) partition one draw, so
    their sum must stay ``<= 1`` and at most one fires per attempt;
    likewise ``torn_cache_rate`` and ``enospc_rate`` partition the
    cache-write draw.  ``max_attempt`` bounds injection: attempts
    beyond it run clean, which guarantees convergence whenever
    ``max_attempt <= retries``.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    transient_rate: float = 0.0
    torn_cache_rate: float = 0.0
    enospc_rate: float = 0.0
    torn_ledger_rate: float = 0.0
    hang_s: float = 30.0
    max_attempt: int = 1

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "transient_rate",
                     "torn_cache_rate", "enospc_rate",
                     "torn_ledger_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}")
        if self.crash_rate + self.hang_rate + self.transient_rate > 1.0:
            raise ConfigurationError(
                "crash_rate + hang_rate + transient_rate must be <= 1 "
                "(they partition one draw)")
        if self.torn_cache_rate + self.enospc_rate > 1.0:
            raise ConfigurationError(
                "torn_cache_rate + enospc_rate must be <= 1 "
                "(they partition one draw)")
        if self.hang_s <= 0.0:
            raise ConfigurationError(
                f"hang_s must be > 0, got {self.hang_s}")
        if self.max_attempt < 1:
            raise ConfigurationError(
                f"max_attempt must be >= 1, got {self.max_attempt}")

    @classmethod
    def at_intensity(cls, level: float, *, seed: int = 0,
                     max_attempt: int = 1, include_hangs: bool = True,
                     hang_s: float = 30.0) -> "ChaosPolicy":
        """The canonical intensity ladder used by E22 and ``--chaos``.

        ``level`` in ``[0, 1]`` scales every fault rate together;
        ``include_hangs=False`` drops the hang component (needed when
        no per-task ``timeout_s`` will be armed to cut hangs short).
        """
        if not 0.0 <= level <= 1.0:
            raise ConfigurationError(
                f"chaos intensity must be in [0, 1], got {level}")
        return cls(seed=seed,
                   crash_rate=0.20 * level,
                   hang_rate=(0.10 * level) if include_hangs else 0.0,
                   transient_rate=0.30 * level,
                   torn_cache_rate=0.25 * level,
                   enospc_rate=0.10 * level,
                   torn_ledger_rate=0.25 * level,
                   hang_s=hang_s, max_attempt=max_attempt)

    def with_seed(self, seed: int) -> "ChaosPolicy":
        return replace(self, seed=seed)

    @property
    def injects_task_faults(self) -> bool:
        return (self.crash_rate + self.hang_rate +
                self.transient_rate) > 0.0

    def _unit(self, site: str, key: str, attempt: int = 0) -> float:
        return deterministic_unit("chaos", self.seed, site, key, attempt)

    def task_action(self, key: str, attempt: int) -> Optional[str]:
        """``"crash" | "hang" | "transient" | None`` for one attempt."""
        if attempt > self.max_attempt:
            return None
        draw = self._unit("task", key, attempt)
        for action, rate in (("crash", self.crash_rate),
                             ("hang", self.hang_rate),
                             ("transient", self.transient_rate)):
            if draw < rate:
                return action
            draw -= rate
        return None

    def cache_action(self, key: str) -> Optional[str]:
        """``"torn" | "enospc" | None`` for one cache write."""
        draw = self._unit("cache_write", key)
        for action, rate in (("torn", self.torn_cache_rate),
                             ("enospc", self.enospc_rate)):
            if draw < rate:
                return action
            draw -= rate
        return None

    def ledger_torn(self, key: str, attempt: int = 0) -> bool:
        """Whether this ledger append simulates a torn/contended write."""
        return self._unit("ledger_write", key,
                          attempt) < self.torn_ledger_rate

    def apply_before_task(self, key: str, attempt: int, *,
                          in_worker: bool,
                          sleep: Callable[[float], None] = time.sleep
                          ) -> None:
        """Fire this attempt's task fault (if any) at the caller.

        Called by the pool immediately before the task body runs --
        outside the task's metrics registry, so chaos never perturbs
        per-task snapshots.  ``in_worker=True`` means a dedicated
        worker process that may really die (``os._exit``) or really
        sleep; ``in_worker=False`` raises the serial stand-ins instead.
        """
        action = self.task_action(key, attempt)
        if action is None:
            return
        if action == "crash":
            if in_worker:
                import os

                os._exit(CHAOS_EXIT_CODE)
            raise InjectedWorkerCrash(
                f"chaos: worker crash injected (attempt {attempt})")
        if action == "hang":
            if in_worker:
                sleep(self.hang_s)
                return
            raise InjectedHang(
                f"chaos: hang injected (attempt {attempt})")
        raise InjectedTransientError(
            f"chaos: transient failure injected (attempt {attempt})")


def tear_file(path, keep_fraction: float = 0.5) -> bool:
    """Truncate ``path`` in place, simulating a torn write.

    Leaves the leading ``keep_fraction`` of the bytes -- enough to be
    recognizably the original record, not enough to parse -- exactly
    what a crash between ``write`` and ``fsync`` can leave behind.
    Returns whether the file was actually damaged.
    """
    import os

    try:
        size = os.path.getsize(path)
    except OSError:
        return False
    if size == 0:
        return False
    kept = max(1, int(size * keep_fraction))
    if kept >= size:
        kept = size - 1
    if kept <= 0:
        return False
    with open(path, "r+b") as handle:
        handle.truncate(kept)
    return True


def chaos_probe(x: int = 0, seed: int = 0) -> dict:
    """Tiny deterministic scheduling workload for chaos experiments.

    Builds a short chain mesh, packs a greedy schedule, and returns a
    digest of it -- cheap enough to run hundreds of times, real enough
    that a corrupted replay is detectable bit-for-bit.  Module-level so
    worker processes can re-import it (E22 and the chaos tests task it
    through the pool as ``repro.runtime.chaos:chaos_probe``).
    """
    from repro.core.engine import SolverEngine
    from repro.core.greedy import greedy_schedule
    from repro.net.topology import chain_topology

    topology = chain_topology(3 + (x % 3))
    links = sorted(topology.links)
    demands = {link: 1 + ((x + seed + rank) % 2)
               for rank, link in enumerate(links)}
    conflicts = SolverEngine().conflict_index(topology, links=demands.keys())
    schedule = greedy_schedule(conflicts, demands)
    assignments = sorted(schedule.items())
    slots = max(block.start + block.length for _, block in assignments)
    digest = hashlib.sha256(repr(assignments).encode("utf-8"))
    return {"x": x, "slots": slots, "digest": digest.hexdigest()[:12]}

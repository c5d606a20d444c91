"""The solver-policy seam: one object deciding *how* a schedule is solved.

:class:`SolverPolicy` is the one place the minimum-slots search is
configured: the gap arm, the guaranteed-region cap and the per-probe
node budget.  It is a frozen, validated value that travels through
:class:`~repro.api.Scenario` (``solver=``),
:class:`~repro.core.engine.SolverEngine` (``policy=``) and
:func:`~repro.core.minslots.minimum_slots` (``policy=``) unchanged; no
call site takes a search knob of its own.

Every mode runs the same bounds first: the greedy-clique floor and the
certificate ladder of :meth:`~repro.core.engine.SolverEngine.run_search`.
When they close, every mode returns the proven ``K = floor``.  The mode
only picks the arm that searches the gap they leave open:

``"exact"``
    The paper's path: the delay-aware feasibility ILP probed by the
    minimum-slots search.  Bitwise-identical to the pre-policy solver at
    any engine configuration.
``"greedy"``
    :func:`repro.core.greedy.greedy_minimum_slots`: a deterministic
    first-fit portfolio compacted by Bellman-Ford.  No ILP at all; solve
    time is near-linear in conflicts.  Sound, never complete: every
    schedule it emits is conflict-free (S8) and meets every delay budget
    it was given, but its region may exceed the optimum.
``"auto"``
    Pick the gap arm per instance: ``"exact"`` up to :data:`AUTO_THRESHOLD`
    demanded links, ``"greedy"`` above it.  The default everywhere, so
    small meshes keep the paper's exact solver and city-scale meshes
    never hit the ILP wall.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ConfigurationError, require_int

#: The accepted ``mode`` spellings, in documentation order.
SOLVER_MODES = ("exact", "greedy", "auto")

#: Demanded-link count above which ``"auto"`` searches the gap with the
#: greedy arm instead of the exact ILP.  The switch sits far beyond every
#: paper-scale workload (16-50 node meshes demand well under 100 links)
#: and comfortably below where the monolithic ILP becomes intractable.
AUTO_THRESHOLD = 256


@dataclass(frozen=True)
class SolverPolicy:
    """How :func:`~repro.core.minslots.minimum_slots` should solve.

    Parameters
    ----------
    mode:
        ``"exact"``, ``"greedy"`` or ``"auto"`` (see the module
        docstring).
    max_region:
        Largest guaranteed region to consider (``None``: the whole
        frame).
    node_limit_per_probe:
        Branch-and-cut node budget per ILP probe, a positive ``int`` --
        the only solver budget.  It is *deterministic*: the same probe
        reaches the same verdict on any machine at any load.  A probe
        left undecided within it counts as infeasible.  ``None`` means
        :data:`repro.core.ilp.DEFAULT_NODE_LIMIT`.

    An unknown knob raises :class:`~repro.errors.ConfigurationError`
    like a bad value does.
    """

    mode: str = "auto"
    max_region: Optional[int] = None
    node_limit_per_probe: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in SOLVER_MODES:
            raise ConfigurationError(
                f"unknown solver mode {self.mode!r}; "
                f"expected one of {SOLVER_MODES}")
        for name in ("max_region", "node_limit_per_probe"):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name), 1)

    @classmethod
    def coerce(cls, value: Union["SolverPolicy", str, None]
               ) -> "SolverPolicy":
        """Normalize the accepted ``solver=`` spellings to a policy.

        ``None`` means the default policy, a string names a mode with
        default knobs, and a :class:`SolverPolicy` passes through.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise ConfigurationError(
            f"solver policy must be a SolverPolicy, a mode string or "
            f"None, got {type(value).__name__}")

    def resolve_mode(self, num_demanded_links: int) -> str:
        """The concrete arm for an instance of this size.

        ``"auto"`` resolves to ``"exact"`` at or below
        :data:`AUTO_THRESHOLD` demanded links and ``"greedy"`` above it;
        explicit modes resolve to themselves.
        """
        if self.mode != "auto":
            return self.mode
        if num_demanded_links <= AUTO_THRESHOLD:
            return "exact"
        return "greedy"


def _reject_unknown_knobs(init):
    """The dataclass ``__init__``, raising ``ConfigurationError`` on bad
    arguments (an unknown knob, or one given twice) instead of
    ``TypeError``; ``functools.wraps`` keeps its signature."""

    @functools.wraps(init)
    def checked(self, *args, **kwargs):
        try:
            init(self, *args, **kwargs)
        except TypeError as exc:
            raise ConfigurationError(f"SolverPolicy: {exc}") from None

    return checked


SolverPolicy.__init__ = _reject_unknown_knobs(SolverPolicy.__init__)

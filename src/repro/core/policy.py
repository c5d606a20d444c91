"""The solver-policy seam: one object deciding *how* a schedule is solved.

:class:`SolverPolicy` is the one place the minimum-slots search is
configured: the solving arm, the probe search (linear or binary), the
guaranteed-region cap and the per-probe node budget.  It is a frozen,
validated value that travels through :class:`~repro.api.Scenario`
(``solver=``), :class:`~repro.core.engine.SolverEngine` (``policy=``) and
:func:`~repro.core.minslots.minimum_slots` (``policy=``) unchanged; no
call site takes a search knob of its own.

Four modes:

``"exact"``
    The paper's path: the delay-aware feasibility ILP probed by the
    minimum-slots search.  Bitwise-identical to the pre-policy solver at
    any engine configuration -- this is the reference arm every other
    mode's optimality gap is measured against.
``"zoned"``
    The large-topology path (:func:`repro.core.zones.zoned_minimum_slots`):
    partition the conflict graph into interference zones of at most
    ``max_zone_links`` links, solve each zone exactly with boundary-slot
    reservation, stitch via one Bellman-Ford recovery pass.
``"greedy"``
    The cheapest arm (:func:`repro.core.zones.greedy_minimum_slots`):
    a deterministic first-fit portfolio compacted by Bellman-Ford.  No
    ILP at all; solve time is near-linear in conflicts.
``"auto"``
    Pick per instance: ``"exact"`` up to ``auto_threshold`` demanded
    links, ``"zoned"`` above it.  The default everywhere, so small
    meshes keep the paper's exact solver and city-scale meshes stop
    hitting the ILP wall without the caller doing anything.

The heuristic arms are *sound, never complete*: every schedule they emit
is conflict-free (S8) and meets every delay budget they were given --
when they cannot, they report infeasibility rather than degrade a
guarantee.  What they give up is minimality, bounded in practice by
``gap_tolerance`` and measured against the exact arm in experiment E21.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ConfigurationError

#: The accepted ``mode`` spellings, in documentation order.
SOLVER_MODES = ("exact", "zoned", "greedy", "auto")

#: Demanded-link count above which ``"auto"`` switches from the exact ILP
#: to the zoned solver.  At the default the switch sits far beyond every
#: paper-scale workload (16-50 node meshes demand well under 100 links)
#: and comfortably below where the monolithic ILP becomes intractable.
DEFAULT_AUTO_THRESHOLD = 256


def require_int(name: str, value: object, minimum: int) -> None:
    """Reject anything but an ``int >= minimum`` -- a bool included."""
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise ConfigurationError(
            f"{name} must be an int >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SolverPolicy:
    """How :func:`~repro.core.minslots.minimum_slots` should solve.

    Parameters
    ----------
    mode:
        ``"exact"``, ``"zoned"``, ``"greedy"`` or ``"auto"`` (see the
        module docstring).
    search:
        Probe-search strategy of the exact arm (and of each zone's exact
        subsolve): ``"linear"`` (the paper's search) or ``"binary"``.
    max_zone_links:
        Zone-size knob of the zoned arm: zones stop growing at this many
        demanded links.  Smaller zones solve faster and parallelize the
        conflict structure harder; larger zones close more of the
        optimality gap.
    gap_tolerance:
        Advertised relative optimality-gap budget of the heuristic arms
        (0.10 = ten percent more slots than optimal).  Heuristic results
        whose gap against the clique lower bound exceeds it increment
        ``core.zones.gap_exceeded`` -- observable, never fatal, and
        asserted against the *measured* gap in experiment E21.
    auto_threshold:
        Demanded-link count at which ``"auto"`` switches from exact to
        zoned.
    max_region:
        Largest guaranteed region to consider (``None``: the whole
        frame).
    node_limit_per_probe:
        Branch-and-cut node budget per ILP probe, a positive ``int`` --
        the only solver budget.  It is *deterministic*: the same probe
        reaches the same verdict on any machine at any load.  A probe
        left undecided within it counts as infeasible.  ``None`` means
        :data:`repro.core.ilp.DEFAULT_NODE_LIMIT` for the exact arm and
        :data:`repro.core.zones.DEFAULT_ZONE_PROBE_NODE_LIMIT` for zone
        sub-searches.
    """

    mode: str = "auto"
    search: str = "linear"
    max_zone_links: int = 64
    gap_tolerance: float = 0.10
    auto_threshold: int = DEFAULT_AUTO_THRESHOLD
    max_region: Optional[int] = None
    node_limit_per_probe: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in SOLVER_MODES:
            raise ConfigurationError(
                f"unknown solver mode {self.mode!r}; "
                f"expected one of {SOLVER_MODES}")
        if self.search not in ("linear", "binary"):
            raise ConfigurationError(
                f"unknown search mode {self.search!r}")
        require_int("max_zone_links", self.max_zone_links, 2)
        gap = self.gap_tolerance
        if not (isinstance(gap, numbers.Real) and 0 <= gap < math.inf):
            raise ConfigurationError(
                f"gap_tolerance must be finite and >= 0, got {gap!r}")
        require_int("auto_threshold", self.auto_threshold, 1)
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
        :attr:`auto_threshold` demanded links and ``"zoned"`` above it;
        explicit modes resolve to themselves.
        """
        if self.mode != "auto":
            return self.mode
        if num_demanded_links <= self.auto_threshold:
            return "exact"
        return "zoned"

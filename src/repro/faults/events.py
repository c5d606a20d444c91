"""Fault-event vocabulary for dynamic-mesh experiments.

A :class:`FaultEvent` is one timestamped mutation of the running system:
a node crash or recovery, an undirected link severed or restored, a step
change of a link's loss rate, or an uncommanded clock phase jump.  Events
are plain validated data -- applying them to a live simulation is the
:class:`repro.faults.injector.FaultInjector`'s job, through the hooks the
channel/clock/topology layers expose for exactly this purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

#: node-scoped fault kinds (require ``node``)
NODE_KINDS = frozenset({"node_down", "node_up", "clock_glitch"})
#: link-scoped fault kinds (require ``link``)
LINK_KINDS = frozenset({"link_down", "link_up", "link_loss", "control_loss"})
#: every recognised fault kind
ALL_KINDS = NODE_KINDS | LINK_KINDS
#: kinds that change the connectivity graph (and hence trigger repair)
TOPOLOGY_KINDS = frozenset({"node_down", "node_up", "link_down", "link_up"})


def _check_time(at_s: float, what: str) -> None:
    """Reject an event time that is negative or not finite."""
    # written so that NaN fails too: every comparison with it is False
    if not 0 <= at_s < math.inf:
        raise ConfigurationError(
            f"{what} time at_s must be non-negative and finite, "
            f"got {at_s!r}")


def _sorted_link(link) -> tuple[int, int]:
    """An undirected link ``(u, v)`` as its sorted pair."""
    try:
        u, v = link
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"link must be a (u, v) node pair, got {link!r}") from None
    if u == v:
        raise ConfigurationError(f"degenerate link ({u}, {v})")
    return (min(u, v), max(u, v))


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped fault.

    Parameters
    ----------
    at_s:
        True (simulator) time at which the fault strikes, seconds.
    kind:
        One of :data:`ALL_KINDS`.
    node:
        Victim node for node-scoped kinds.
    link:
        Victim undirected link ``(u, v)`` for link-scoped kinds; ``(u, v)``
        and ``(v, u)`` denote the same fault and are normalised to the
        sorted pair.
    value:
        ``link_loss`` / ``control_loss``: the new per-direction loss
        probability in ``[0, 1)`` (0.0 restores a clean link;
        ``control_loss`` hits only control-plane frames -- beacons and
        schedule announcements).  ``clock_glitch``: the phase jump in
        local seconds (either sign).  Unused otherwise.
    """

    at_s: float
    kind: str
    node: Optional[int] = None
    link: Optional[tuple[int, int]] = None
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(ALL_KINDS)}")
        _check_time(self.at_s, "fault")
        if self.kind in NODE_KINDS:
            if self.node is None:
                raise ConfigurationError(f"{self.kind} fault needs a node")
            if self.link is not None:
                raise ConfigurationError(
                    f"{self.kind} fault takes a node, not a link")
        else:
            if self.link is None:
                raise ConfigurationError(f"{self.kind} fault needs a link")
            if self.node is not None:
                raise ConfigurationError(
                    f"{self.kind} fault takes a link, not a node")
            object.__setattr__(self, "link", _sorted_link(self.link))
        if self.kind in ("link_loss", "control_loss"):
            if self.value is None or not 0.0 <= self.value < 1.0:
                raise ConfigurationError(
                    f"{self.kind} needs a loss rate in [0, 1), "
                    f"got {self.value}")
        elif self.kind == "clock_glitch":
            if self.value is None or not math.isfinite(self.value):
                raise ConfigurationError(
                    "clock_glitch value must be a finite phase jump, "
                    f"got {self.value!r}")
        elif self.value is not None:
            raise ConfigurationError(
                f"{self.kind} fault does not take a value")

    @property
    def is_topology_event(self) -> bool:
        """True iff this fault changes the connectivity graph."""
        return self.kind in TOPOLOGY_KINDS

    def sort_key(self) -> tuple:
        """Deterministic total order: time, then kind, then victim."""
        return (self.at_s, self.kind, self.node if self.node is not None
                else -1, self.link or (-1, -1))

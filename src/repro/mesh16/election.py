"""Distributed mesh election for control-subframe access.

The roster in :mod:`repro.mesh16.network` models the *outcome* of 802.16
mesh election as a global round-robin.  This module implements the
election itself, in the standard's spirit:

- every node holds off for a fixed number of opportunities after each win
  (the standard's ``XmtHoldoffTime = 2^(XmtHoldoffExponent+4)``);
- at an opportunity it is eligible for, a node competes against every
  *eligible* node within two hops by evaluating a pseudo-random mixing
  hash of (node id, opportunity index); the largest hash wins;
- a node transmits iff it beats all eligible competitors in its own 2-hop
  neighbourhood, so far-apart winners share the opportunity -- control
  slots get the same spatial reuse as data slots.

Safety: two winners of one opportunity are always more than two hops
apart, so (by the containment theorem checked in
``tests/test_phy_interference.py``) their control transmissions cannot
collide at any receiver.  Every eligible node wins within a bounded number
of opportunities because hashes reshuffle per opportunity (fairness is
asserted statistically in the tests).

The mixing function is a deterministic 64-bit integer hash (splitmix64
finalizer) rather than the standard's exact smearing polynomial; what the
protocol needs from it -- determinism, symmetry of knowledge, per-
opportunity reshuffling -- is preserved.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.mesh16.frame import MeshFrameConfig
from repro.mesh16.network import ControlPlane
from repro.net.topology import MeshTopology, bfs_levels


def election_hash(node: int, opportunity: int) -> int:
    """Deterministic per-(node, opportunity) competition value.

    splitmix64's finalizer: full-period avalanche on a 64-bit lane, so
    rankings between nodes are effectively independent across
    opportunities.
    """
    x = ((node & 0xFFFFFFFF) << 32) ^ (opportunity & 0xFFFFFFFF)
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class ElectionControlPlane(ControlPlane):
    """Control-subframe ownership decided by distributed election.

    Drop-in replacement for :class:`~repro.mesh16.network.ControlPlane`:
    the overlay only asks :meth:`owns`.  Winners are computed lazily and
    cached per opportunity; the computation is deterministic, so every
    node's local view agrees (as it would on air, where eligibility is
    known from neighbours' advertised next-transmit times).

    Parameters
    ----------
    holdoff_opportunities:
        Opportunities a node sits out after each win (the standard's
        ``2^(exp+4)``; 16 corresponds to exponent 0).
    """

    def __init__(self, topology: MeshTopology, gateway: int,
                 frame_config: MeshFrameConfig,
                 holdoff_opportunities: int = 16) -> None:
        super().__init__(topology, gateway, frame_config)
        if holdoff_opportunities < 1:
            raise ConfigurationError("holdoff must be at least 1")
        self.holdoff = holdoff_opportunities
        #: nodes within two hops (the competition neighbourhood), per node
        self._neighborhood: dict[int, frozenset[int]] = {}
        for node in topology.nodes:
            reach, _ = bfs_levels(topology.rows, [node], cutoff=2)
            self._neighborhood[node] = frozenset(reach) - {node}
        self._winners: list[frozenset[int]] = []
        self._next_eligible: dict[int, int] = {n: 0 for n in topology.nodes}

    # -- election ------------------------------------------------------------

    def _advance_to(self, opportunity: int) -> None:
        while len(self._winners) <= opportunity:
            index = len(self._winners)
            eligible = {node for node, at in self._next_eligible.items()
                        if at <= index}
            winners = set()
            for node in eligible:
                mine = election_hash(node, index)
                rivals = self._neighborhood[node] & eligible
                if all(mine > election_hash(rival, index)
                       for rival in rivals):
                    winners.add(node)
            for node in winners:
                self._next_eligible[node] = index + self.holdoff
            self._winners.append(frozenset(winners))

    def winners(self, opportunity: int) -> frozenset[int]:
        """All nodes transmitting in global opportunity ``opportunity``."""
        if opportunity < 0:
            raise ConfigurationError("opportunity must be >= 0")
        self._advance_to(opportunity)
        return self._winners[opportunity]

    def _opportunity_index(self, frame_index: int, control_slot: int) -> int:
        return (frame_index * self.frame_config.control_slots
                + control_slot)

    # -- ControlPlane interface --------------------------------------------------

    def owns(self, node: int, frame_index: int, control_slot: int) -> bool:
        return node in self.winners(
            self._opportunity_index(frame_index, control_slot))

    def owner(self, frame_index: int, control_slot: int) -> int:
        """Not meaningful under election (an opportunity may have several
        winners); kept for interface compatibility and returns the lowest
        winner or -1 for an idle opportunity."""
        winners = self.winners(
            self._opportunity_index(frame_index, control_slot))
        return min(winners) if winners else -1

    def next_opportunity(self, node: int,
                         from_frame: int) -> tuple[int, int]:
        """First (frame, slot) this node wins at or after ``from_frame``."""
        slots = self.frame_config.control_slots
        index = from_frame * slots
        # a node must win within ~holdoff * neighbourhood-size
        # opportunities; scan with a generous cap
        for candidate in range(index, index + 64 * self.holdoff):
            if node in self.winners(candidate):
                return candidate // slots, candidate % slots
        raise ConfigurationError(  # pragma: no cover - starvation guard
            f"node {node} won no opportunity in a long scan; "
            "election misconfigured")

"""Mesh control plane: who owns which control opportunity.

802.16 mesh nodes win periodic, collision-free access to the control
subframe through mesh election.  The emulation reproduces the *outcome* of
election -- a deterministic, conflict-free round-robin of control
opportunities -- rather than the election handshake itself: each frame has
``control_slots`` opportunities, and nodes take turns ordered by their
depth on the scheduling tree (gateway first), so a sync beacon injected by
the gateway can ripple one tier outward within a frame or two.

Conflict-freeness: an opportunity is exclusive network-wide (one
transmitter per control slot), which is stricter than 802.16 requires but
matches what a small emulated mesh does and keeps control collisions out of
the sync-error measurements (E8 isolates drift, not control contention).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.mesh16.frame import MeshFrameConfig
from repro.net.routing import _gateway_bfs
from repro.net.topology import MeshTopology


class ControlPlane:
    """Deterministic control-subframe ownership and the scheduling tree."""

    def __init__(self, topology: MeshTopology, gateway: int,
                 frame_config: MeshFrameConfig) -> None:
        if frame_config.control_slots < 1:
            raise ConfigurationError(
                "control plane needs at least one control slot per frame")
        self.topology = topology
        self.gateway = gateway
        self.frame_config = frame_config
        #: child -> parent scheduling tree (:func:`gateway_tree`), whose
        #: BFS levels also give the depths and the roster
        self.tree, levels = _gateway_bfs(topology, gateway)
        self.depths = {node: depth for depth, level in enumerate(levels)
                       for node in level}
        # Depth-ordered node list: gateway, then tier 1, tier 2, ...
        self.roster: list[int] = [node for level in levels
                                  for node in sorted(level)]
        self._position = {node: i for i, node in enumerate(self.roster)}

    def owner(self, frame_index: int, control_slot: int) -> int:
        """The node owning control opportunity ``control_slot`` of a frame."""
        if not 0 <= control_slot < self.frame_config.control_slots:
            raise ConfigurationError(
                f"control slot {control_slot} out of range")
        opportunity = (frame_index * self.frame_config.control_slots
                       + control_slot)
        return self.roster[opportunity % len(self.roster)]

    def owns(self, node: int, frame_index: int, control_slot: int) -> bool:
        """Whether ``node`` may transmit in this control opportunity.

        The roster grants exactly one owner per opportunity; the
        election-based subclass (:class:`repro.mesh16.election.
        ElectionControlPlane`) may grant several spatially separated
        winners.
        """
        return self.owner(frame_index, control_slot) == node

    def next_opportunity(self, node: int,
                         from_frame: int) -> tuple[int, int]:
        """First (frame, control slot) owned by ``node`` at/after a frame.

        The roster cycles with period ``ceil(N / control_slots)`` frames, so
        every node speaks at least once per cycle.
        """
        if node not in self._position:
            raise ConfigurationError(f"unknown node {node}")
        slots_per_frame = self.frame_config.control_slots
        position = self._position[node]
        start = from_frame * slots_per_frame
        # Smallest opportunity >= start congruent to position mod roster size.
        roster_size = len(self.roster)
        delta = (position - start) % roster_size
        opportunity = start + delta
        return opportunity // slots_per_frame, opportunity % slots_per_frame

    def parent(self, node: int) -> Optional[int]:
        """The node's parent on the scheduling tree (None for the gateway)."""
        return self.tree.get(node)

    def depth(self, node: int) -> int:
        return self.depths[node]

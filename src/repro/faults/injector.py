"""Apply a fault plan to a live (or analytic) mesh.

The :class:`FaultInjector` is the single writer of fault state.  It owns
the accumulated sets of dead nodes and dead edges, mutates the running
system exclusively through the hooks the lower layers export for it --
:meth:`repro.phy.channel.BroadcastChannel.set_node_down` /
``set_link_down`` / ``update_link_error_rates`` /
``update_control_error_rates`` and
:meth:`repro.sim.clock.DriftingClock.glitch` -- and notifies registered
listeners (anything with an ``on_fault(event)`` method, e.g. the
:class:`repro.core.repair.RepairEngine`) after each event lands.

Two driving modes share the same code path:

- **simulated**: :meth:`arm` schedules every event on the event kernel, so
  faults strike mid-packet exactly at their timestamps;
- **analytic**: callers step :meth:`apply` themselves (E17 does this --
  it needs repair decisions per event, not packet-level detail).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.errors import ConfigurationError
from repro.faults.events import FaultEvent
from repro.faults.plan import FaultPlan
from repro.net.topology import Link, MeshTopology
from repro.phy.channel import BroadcastChannel
from repro.sim.clock import DriftingClock
from repro.sim.engine import Simulator


class FaultInjector:
    """Applies a :class:`FaultPlan` through the layer hooks.

    Parameters
    ----------
    plan:
        The fault schedule.  Victims are validated against ``topology`` at
        construction time.
    topology:
        The *base* (pre-fault) mesh.
    sim, channel, clocks:
        Optional live-simulation attachments.  ``clocks`` maps node id to
        its :class:`DriftingClock`.  All three may be omitted for analytic
        stepping.
    listeners:
        Objects with an ``on_fault(event)`` method, called after each
        event's state change has been applied (so a listener reading
        :attr:`dead_nodes` sees the post-event world).
    """

    def __init__(self, plan: FaultPlan, topology: MeshTopology,
                 sim: Optional[Simulator] = None,
                 channel: Optional[BroadcastChannel] = None,
                 clocks: Optional[Mapping[int, DriftingClock]] = None,
                 listeners: Iterable[object] = ()) -> None:
        for event in plan:
            if event.node is not None and not topology.has_node(event.node):
                raise ConfigurationError(
                    f"fault victim node {event.node} is not in {topology.name}")
            if event.link is not None and not topology.has_link(event.link):
                raise ConfigurationError(
                    f"fault victim link {event.link} is not in {topology.name}")
        self.plan = plan
        self.topology = topology
        self.sim = sim
        self.channel = channel
        self.clocks = dict(clocks or {})
        self._listeners: list[object] = list(listeners)
        self._dead_nodes: set[int] = set()
        self._dead_edges: set[tuple[int, int]] = set()
        self._applied: list[FaultEvent] = []
        self._armed = False

    # -- state queries ------------------------------------------------------

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Nodes currently crashed."""
        return frozenset(self._dead_nodes)

    @property
    def dead_edges(self) -> frozenset[tuple[int, int]]:
        """Undirected edges currently severed, as sorted pairs."""
        return frozenset(self._dead_edges)

    @property
    def applied(self) -> tuple[FaultEvent, ...]:
        """Events applied so far, in application order."""
        return tuple(self._applied)

    def add_listener(self, listener: object) -> None:
        """Register an ``on_fault(event)`` observer."""
        if not callable(getattr(listener, "on_fault", None)):
            raise ConfigurationError(
                f"{listener!r} has no callable on_fault(event) method")
        self._listeners.append(listener)

    # -- driving ------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every plan event on the simulator (once)."""
        if self.sim is None:
            raise ConfigurationError("arm() needs a simulator")
        if self._armed:
            raise ConfigurationError("injector already armed")
        self._armed = True
        for event in self.plan:
            self.sim.schedule_at(event.at_s, self.apply, event)

    def apply(self, event: FaultEvent) -> None:
        """Apply one event: update fault state, drive hooks, notify.

        Idempotent per state bit (a second ``node_down`` on a dead node is
        a no-op at the state level but still reaches hooks and listeners,
        which make their own no-op decisions).
        """
        if event.kind == "node_down":
            self._dead_nodes.add(event.node)
            if self.channel is not None:
                self.channel.set_node_down(event.node, True)
        elif event.kind == "node_up":
            self._dead_nodes.discard(event.node)
            if self.channel is not None:
                self.channel.set_node_down(event.node, False)
        elif event.kind == "link_down":
            self._dead_edges.add(event.link)
            if self.channel is not None:
                self.channel.set_link_down(event.link, True)
        elif event.kind == "link_up":
            self._dead_edges.discard(event.link)
            if self.channel is not None:
                self.channel.set_link_down(event.link, False)
        elif event.kind == "link_loss":
            if self.channel is not None:
                u, v = event.link
                self.channel.update_link_error_rates(
                    {(u, v): event.value, (v, u): event.value})
        elif event.kind == "control_loss":
            if self.channel is not None:
                u, v = event.link
                self.channel.update_control_error_rates(
                    {(u, v): event.value, (v, u): event.value})
        elif event.kind == "clock_glitch":
            clock = self.clocks.get(event.node)
            if clock is not None:
                now = self.sim.now if self.sim is not None else event.at_s
                clock.glitch(now, event.value)
        self._applied.append(event)
        for listener in self._listeners:
            listener.on_fault(event)

    def run_plan(self) -> None:
        """Analytically apply the whole plan in time order (no simulator)."""
        for event in self.plan:
            self.apply(event)

    # -- derived views -------------------------------------------------------

    def dead_directed_links(self) -> frozenset[Link]:
        """Directed links currently unusable (either endpoint dead, or edge cut)."""
        dead = set()
        for u, v in self.topology.links:
            if (u in self._dead_nodes or v in self._dead_nodes
                    or (min(u, v), max(u, v)) in self._dead_edges):
                dead.add((u, v))
        return frozenset(dead)

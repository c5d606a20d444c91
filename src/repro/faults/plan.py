"""Fault plans: scripted and stochastic schedules of fault events.

A :class:`FaultPlan` is an immutable, time-sorted sequence of
:class:`~repro.faults.events.FaultEvent` validated against a topology.
Plans come from two builders:

- :meth:`FaultPlan.scripted` -- an explicit event list, for regression
  tests and worked examples;
- :meth:`FaultPlan.stochastic` -- seeded Poisson churn, for the E17
  experiment.  The generator is a pure function of the supplied RNG, so
  the same seed always yields byte-identical plans, which is what lets
  the runtime cache and shard churn sweeps like any other experiment.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.events import FaultEvent
from repro.net.topology import MeshTopology


class FaultPlan:
    """An immutable time-ordered fault schedule."""

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=FaultEvent.sort_key))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def topology_events(self) -> tuple[FaultEvent, ...]:
        """Only the events that change the connectivity graph."""
        return tuple(e for e in self.events if e.is_topology_event)

    def horizon_s(self) -> float:
        """Time of the last event (0.0 for an empty plan)."""
        return self.events[-1].at_s if self.events else 0.0

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """This plan and ``other`` interleaved into one time-sorted plan.

        The natural way to combine a mobility-derived topology stream
        (:meth:`repro.mobility.TopologyStream.fault_plan`) with an
        ambient stochastic fault plan: churn from motion and churn from
        failures ride the same injector.
        """
        return FaultPlan(self.events + other.events)

    # -- builders ----------------------------------------------------------

    @classmethod
    def scripted(cls, events: Sequence[FaultEvent],
                 topology: Optional[MeshTopology] = None) -> "FaultPlan":
        """Build a plan from an explicit event list.

        When ``topology`` is given, every victim is checked against it up
        front so a typo'd node id fails at plan-build time, not mid-run.
        """
        if topology is not None:
            for event in events:
                if event.node is not None and not topology.has_node(event.node):
                    raise ConfigurationError(
                        f"fault victim node {event.node} is not in "
                        f"{topology.name}")
                if event.link is not None and not topology.has_link(event.link):
                    raise ConfigurationError(
                        f"fault victim link {event.link} is not in "
                        f"{topology.name}")
        return cls(events)

    @classmethod
    def stochastic(cls, topology: MeshTopology,
                   rng: Optional[np.random.Generator] = None,
                   horizon_s: Optional[float] = None,
                   node_crash_rate: float = 0.0,
                   link_down_rate: float = 0.0,
                   link_loss_rate: float = 0.0,
                   clock_glitch_rate: float = 0.0,
                   control_loss_rate: float = 0.0,
                   mean_downtime_s: float = 5.0,
                   loss_range: tuple[float, float] = (0.2, 0.8),
                   glitch_range_s: tuple[float, float] = (-2e-3, 2e-3),
                   protect_nodes: Iterable[int] = (),
                   seed: Optional[int] = None) -> "FaultPlan":
        """Seeded Poisson churn over ``[0, horizon_s)``.

        Randomness follows the standard ``rng=``/``seed=`` pair: pass a
        generator to share a stream, or an integer seed for a
        self-contained reproducible plan.

        Each fault class is an independent Poisson process with the given
        rate (events per second; 0 disables the class).  Every ``*_down``
        fault is paired with a recovery after an exponential downtime with
        mean ``mean_downtime_s``, kept only if it lands inside the horizon
        (so a late crash can outlive the run).  ``link_loss`` and
        ``control_loss`` steps draw a
        loss rate uniformly from ``loss_range`` and ``clock_glitch`` a phase
        jump uniformly from ``glitch_range_s``.

        ``protect_nodes`` (typically the gateway) are exempt from crashes;
        links are drawn over the whole mesh.  Victims are drawn from sorted
        candidate lists, so the plan depends only on the RNG state and the
        topology -- never on dict/set iteration order.
        """
        from repro.sim.random import resolve_rng

        rng = resolve_rng(rng, seed, what="FaultPlan.stochastic")
        if horizon_s is None:
            raise ConfigurationError(
                "FaultPlan.stochastic needs a horizon_s")
        if horizon_s <= 0:
            raise ConfigurationError("horizon must be positive")
        if mean_downtime_s <= 0:
            raise ConfigurationError("mean downtime must be positive")
        protected = frozenset(protect_nodes)
        crashable = [n for n in topology.nodes if n not in protected]
        edges = topology.edges
        events: list[FaultEvent] = []

        def arrivals(rate: float) -> list[float]:
            times, t = [], 0.0
            while rate > 0:
                t += float(rng.exponential(1.0 / rate))
                if t >= horizon_s:
                    break
                times.append(t)
            return times

        if node_crash_rate > 0 and not crashable:
            raise ConfigurationError(
                "node_crash_rate > 0 but every node is protected")
        for t in arrivals(node_crash_rate):
            node = crashable[int(rng.integers(len(crashable)))]
            events.append(FaultEvent(t, "node_down", node=node))
            recover = t + float(rng.exponential(mean_downtime_s))
            if recover < horizon_s:
                events.append(FaultEvent(recover, "node_up", node=node))
        if (link_down_rate > 0 or link_loss_rate > 0) and not edges:
            raise ConfigurationError("topology has no links to fault")
        for t in arrivals(link_down_rate):
            link = edges[int(rng.integers(len(edges)))]
            events.append(FaultEvent(t, "link_down", link=link))
            recover = t + float(rng.exponential(mean_downtime_s))
            if recover < horizon_s:
                events.append(FaultEvent(recover, "link_up", link=link))
        for t in arrivals(link_loss_rate):
            link = edges[int(rng.integers(len(edges)))]
            lo, hi = loss_range
            events.append(FaultEvent(t, "link_loss", link=link,
                                     value=float(rng.uniform(lo, hi))))
        for t in arrivals(clock_glitch_rate):
            node = topology.nodes[int(rng.integers(topology.num_nodes()))]
            lo, hi = glitch_range_s
            events.append(FaultEvent(t, "clock_glitch", node=node,
                                     value=float(rng.uniform(lo, hi))))
        if control_loss_rate > 0 and not edges:
            raise ConfigurationError("topology has no links to fault")
        for t in arrivals(control_loss_rate):
            link = edges[int(rng.integers(len(edges)))]
            lo, hi = loss_range
            events.append(FaultEvent(t, "control_loss", link=link,
                                     value=float(rng.uniform(lo, hi))))
        return cls(events)

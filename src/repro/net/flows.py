"""Flow abstractions: what the QoS scheduler is asked to support.

A :class:`Flow` is a unidirectional traffic demand with a bandwidth
requirement and an optional end-to-end delay budget.  Routing
(:mod:`repro.net.routing`) turns flows into *routed flows* -- ordered lists
of directed links -- and the scheduler converts per-flow bandwidth into
per-link slot demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.errors import ConfigurationError
from repro.net.topology import Link


@dataclass(frozen=True)
class Flow:
    """A unidirectional guaranteed-QoS traffic demand.

    Parameters
    ----------
    name:
        Unique identifier ("voip3", "bestef0", ...).
    src, dst:
        Endpoint node ids.
    rate_bps:
        Required application-layer bandwidth in bits/second.
    delay_budget_s:
        Maximum tolerable end-to-end (scheduling) delay in seconds, or
        ``None`` for best-effort flows with no delay guarantee.
    route:
        Filled in by routing: the ordered directed links from src to dst.
    """

    name: str
    src: int
    dst: int
    rate_bps: float
    delay_budget_s: Optional[float] = None
    route: tuple[Link, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ConfigurationError(f"flow {self.name}: src == dst == {self.src}")
        # written so that NaN fails too: every comparison with it is False
        rate, budget = self.rate_bps, self.delay_budget_s
        if not 0 < rate < math.inf:
            raise ConfigurationError(f"flow {self.name}: rate must be "
                                     f"positive and finite, got {rate}")
        if budget is not None and not 0 < budget < math.inf:
            raise ConfigurationError(f"flow {self.name}: delay budget must "
                                     f"be positive and finite, got {budget}")
        if self.route:
            self._validate_route()

    def _validate_route(self) -> None:
        if self.route[0][0] != self.src or self.route[-1][1] != self.dst:
            raise ConfigurationError(
                f"flow {self.name}: route endpoints do not match flow endpoints")
        for (____, mid), (nxt, ____) in zip(self.route, self.route[1:]):
            if mid != nxt:
                raise ConfigurationError(
                    f"flow {self.name}: route is not contiguous at {mid}->{nxt}")

    @property
    def is_routed(self) -> bool:
        return bool(self.route)

    @property
    def hops(self) -> int:
        """Number of links on the route (0 if unrouted)."""
        return len(self.route)

    def with_route(self, route: Iterable[Link]) -> "Flow":
        """Return a copy of this flow carrying the given route (validated
        like any :class:`Flow`)."""
        return Flow(self.name, self.src, self.dst, self.rate_bps,
                    self.delay_budget_s, tuple(route))

    def slots_per_frame(self, frame_duration_s: float,
                        slot_capacity_bits: float) -> int:
        """Number of TDMA data slots per frame this flow needs on each link.

        The per-frame demand is ``ceil(rate * frame / slot_capacity)``: the
        flow accumulates ``rate * frame`` bits per frame and each slot moves
        ``slot_capacity`` bits one hop.
        """
        if frame_duration_s <= 0 or slot_capacity_bits <= 0:
            raise ConfigurationError(
                "frame duration and slot capacity must be positive")
        bits_per_frame = self.rate_bps * frame_duration_s
        return max(1, math.ceil(bits_per_frame / slot_capacity_bits))


class FlowSet:
    """An ordered collection of flows with unique names."""

    def __init__(self, flows: Iterable[Flow] = ()) -> None:
        self._flows: dict[str, Flow] = {}
        for flow in flows:
            self.add(flow)

    def add(self, flow: Flow) -> None:
        if flow.name in self._flows:
            raise ConfigurationError(f"duplicate flow name {flow.name!r}")
        self._flows[flow.name] = flow

    def remove(self, name: str) -> Flow:
        try:
            return self._flows.pop(name)
        except KeyError:
            raise ConfigurationError(f"no flow named {name!r}") from None

    def replace(self, flow: Flow) -> None:
        """Replace the flow with the same name (e.g. after routing)."""
        if flow.name not in self._flows:
            raise ConfigurationError(f"no flow named {flow.name!r}")
        self._flows[flow.name] = flow

    def get(self, name: str) -> Flow:
        try:
            return self._flows[name]
        except KeyError:
            raise ConfigurationError(f"no flow named {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._flows

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows.values())

    def __len__(self) -> int:
        return len(self._flows)

    def names(self) -> list[str]:
        return list(self._flows)

    def guaranteed(self) -> list[Flow]:
        """Flows with a delay budget (guaranteed-QoS class)."""
        return [f for f in self if f.delay_budget_s is not None]

    def best_effort(self) -> list[Flow]:
        """Flows without a delay budget."""
        return [f for f in self if f.delay_budget_s is None]

    def link_demands(self, frame_duration_s: float,
                     slot_capacity_bits: float) -> dict[Link, int]:
        """Aggregate per-link slot demand over all (routed) flows.

        Raises if any flow is unrouted; route first.
        """
        demands: dict[Link, int] = {}
        for flow in self:
            if not flow.is_routed:
                raise ConfigurationError(
                    f"flow {flow.name} is unrouted; call route_all() first")
            per_link = flow.slots_per_frame(frame_duration_s, slot_capacity_bits)
            for link in flow.route:
                demands[link] = demands.get(link, 0) + per_link
        return demands

    def total_rate_bps(self) -> float:
        return sum(f.rate_bps for f in self)

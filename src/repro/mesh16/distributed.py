"""Coordinated distributed scheduling (802.16 mesh DSCH handshake).

The centralized scheduler (:mod:`repro.core`) is what the paper line
optimizes, but 802.16 mesh also defines a *distributed* mode in which
neighbours negotiate slots pairwise with a three-way handshake, each node
knowing only what it overhears:

1. **Request** -- the transmitter of a link asks its receiver for ``d``
   slots, attaching its own availability;
2. **Grant** -- the receiver picks a slot range free in *both* views and
   broadcasts the grant; the receiver's neighbours overhear it and mark
   those slots unusable for transmission (they would collide at the
   receiver);
3. **Confirm** -- the transmitter broadcasts confirmation; its neighbours
   overhear and mark the slots unusable for reception (the transmitter's
   signal will interfere there).

The overhearing rules reproduce the protocol interference model exactly, so
a completed negotiation can never corrupt a previously committed one -- the
test suite checks every outcome against
:func:`repro.phy.interference.interference_graph`.

**Lossy control plane.**  On WiFi hardware handshake legs get lost like any
other frame.  With ``loss_rate > 0`` each leg's delivery *to its peer* is
an independent seeded Bernoulli draw, and the protocol survives through
timeout/retry with idempotent re-negotiation: a transmitter whose request
or grant went unanswered re-requests after ``timeout_opportunities`` (up
to ``retry_limit`` timeout-retries), a receiver re-granting an
already-granted link always re-issues the *same* block, and duplicate
grants are answered with duplicate confirms -- so repeats never move a
reservation.  Slot marks still commit atomically at grant time: the grant
broadcast is the binding step (802.16's no-backtracking rule), and what a
lost leg delays is only the handshake bookkeeping, never slot safety.
Neighbourhood *overhearing* of a delivered broadcast is kept reliable --
the protocol-model abstraction this module is built on; packet-level
control loss, including lost overhearing, is exercised end-to-end by the
overlay dissemination path in experiment E18.

Faithfulness note: negotiation is simulated at the *control-opportunity*
level (one protocol action per node per opportunity, opportunities in the
mesh-election roster order), not packet-by-packet.  What the abstraction
keeps is exactly what experiments E14 (efficiency/convergence vs the
centralized ILP) and E18 (control-frame loss) measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro import obs
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import ConfigurationError
from repro.net.topology import Link, MeshTopology


@dataclass
class _Negotiation:
    """One link's pending handshake state at its transmitter."""

    link: Link
    demand: int
    granted: Optional[SlotBlock] = None
    confirmed: bool = False
    #: how many times the receiver failed to find a common range
    rejections: int = 0
    #: opportunity index before which the transmitter must not re-request
    retry_at: Optional[int] = None
    #: opportunity index of the receiver's last (re-)grant
    grant_sent_at: Optional[int] = None
    #: the receiver heard the confirm (handshake fully closed)
    confirm_heard: bool = False
    #: a duplicate grant arrived after confirming; re-confirm is owed
    reconfirm_owed: bool = False
    #: timeout-triggered retries spent (rejection re-requests are free)
    timeout_retries: int = 0
    #: gave up after ``retry_limit`` timeout-retries
    abandoned: bool = False


@dataclass
class DistributedOutcome:
    """Result of a :class:`DistributedScheduler` run."""

    schedule: Schedule
    #: links whose demand could not be (fully) granted
    unserved: dict[Link, int] = field(default_factory=dict)
    #: control opportunities consumed until convergence
    opportunities_used: int = 0
    #: handshake messages exchanged (requests + grants + confirms,
    #: including retries)
    messages: int = 0
    #: messages whose peer delivery was lost to channel error
    lost_messages: int = 0
    #: timeout-triggered re-sends (re-requests, re-grants, re-confirms)
    retries: int = 0

    @property
    def fully_served(self) -> bool:
        return not self.unserved


class _NodeAgent:
    """Per-node protocol state: what this node believes about the frame."""

    def __init__(self, node: int, frame_slots: int) -> None:
        self.node = node
        #: slots where this node must not transmit
        self.no_tx = [False] * frame_slots
        #: slots where this node cannot successfully receive
        self.no_rx = [False] * frame_slots
        #: requests received, waiting for this node to grant
        self.pending_grants: list[_Negotiation] = []
        #: blocks this node has granted, for idempotent re-grants
        self.granted_blocks: dict[Link, SlotBlock] = {}

    def mark(self, block: SlotBlock, tx: bool = False,
             rx: bool = False) -> None:
        for slot in block.slots():
            if tx:
                self.no_tx[slot] = True
            if rx:
                self.no_rx[slot] = True


class DistributedScheduler:
    """Round-based simulation of the distributed slot negotiation.

    Parameters
    ----------
    topology:
        The mesh; negotiation and overhearing follow its radio links.
    frame_slots:
        Data slots per frame.
    max_cycles:
        Give up on still-unserved demands after this many full roster
        cycles (a no-backtracking protocol can deadlock on tight frames).
    loss_rate:
        Per-leg probability that a handshake message misses its peer
        (seeded Bernoulli; 0.0 restores the reliable control plane).
    rng, seed:
        Loss randomness, standard ``rng=``/``seed=`` pair; required iff
        ``loss_rate > 0``.  A shared generator is consumed across
        :meth:`run` calls; pass ``seed`` for self-contained runs.
    timeout_opportunities:
        How many opportunities a sender waits for the counterpart action
        before re-sending.  Defaults to one full roster cycle.
    retry_limit:
        Timeout-retries per negotiation before the transmitter abandons
        it (rejection re-requests are not counted -- they carry fresh
        information and were always unbounded in this protocol).
    engine:
        Optional shared :class:`~repro.core.engine.SolverEngine`.  When
        set, every committed schedule is validated against the engine's
        cached *exact* interference index (the relation the overhearing
        handshake enforces -- tighter than the 2-hop protocol model), so
        repeated :meth:`run` calls on one topology reuse a single
        interference-graph build.  A violation raises
        :class:`~repro.errors.SchedulingError`: the negotiated views
        disagreeing with the radio model is a protocol-invariant breach,
        never a legitimate outcome.
    """

    def __init__(self, topology: MeshTopology, frame_slots: int,
                 max_cycles: int = 8, loss_rate: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None,
                 timeout_opportunities: Optional[int] = None,
                 retry_limit: int = 6,
                 engine=None) -> None:
        if frame_slots <= 0:
            raise ConfigurationError("frame_slots must be positive")
        if max_cycles < 1:
            raise ConfigurationError("need at least one cycle")
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(
                f"loss rate must be in [0, 1), got {loss_rate}")
        if timeout_opportunities is not None and timeout_opportunities < 1:
            raise ConfigurationError("timeout must be >= 1 opportunity")
        if retry_limit < 0:
            raise ConfigurationError("retry limit must be non-negative")
        self.topology = topology
        self.frame_slots = frame_slots
        self.max_cycles = max_cycles
        self.loss_rate = loss_rate
        self.timeout_opportunities = timeout_opportunities
        self.retry_limit = retry_limit
        self.engine = engine
        if loss_rate > 0.0:
            from repro.sim.random import resolve_rng
            self._rng = resolve_rng(rng, seed, what="DistributedScheduler")
        else:
            self._rng = None

    def _lost(self) -> bool:
        """One Bernoulli delivery draw for the current leg's peer."""
        return (self._rng is not None
                and float(self._rng.random()) < self.loss_rate)

    def run(self, demands: Mapping[Link, int]) -> DistributedOutcome:
        """Negotiate all link demands; returns the committed schedule."""
        for link, demand in demands.items():
            if not self.topology.has_link(link):
                raise ConfigurationError(f"{link} is not a topology link")
            if demand < 0:
                raise ConfigurationError(f"negative demand on {link}")

        agents = {node: _NodeAgent(node, self.frame_slots)
                  for node in self.topology.nodes}
        negotiations: dict[Link, _Negotiation] = {
            link: _Negotiation(link, demand)
            for link, demand in sorted(demands.items()) if demand > 0}
        schedule = Schedule(self.frame_slots)
        messages = 0
        lost_messages = 0
        retries = 0
        opportunities = 0

        # Mesh-election outcome: deterministic node roster (see
        # mesh16.network); one protocol action per opportunity.
        roster = self.topology.nodes
        timeout = (self.timeout_opportunities
                   if self.timeout_opportunities is not None
                   else len(roster))
        for ____ in range(self.max_cycles):
            progressed = False
            for node in roster:
                opportunities += 1
                agent = agents[node]

                # 1st priority: answer a pending request (Grant).
                if agent.pending_grants:
                    negotiation = agent.pending_grants.pop(0)
                    messages += 1
                    block = agent.granted_blocks.get(negotiation.link)
                    if block is not None:
                        # Idempotent re-grant: a retried request for a link
                        # this node already granted gets the same block --
                        # no new marks, nothing moves.
                        retries += 1
                        obs.counter("mesh16.dsch.regrants").inc()
                    else:
                        block = self._pick_range(agents, negotiation)
                    if block is None:
                        negotiation.rejections += 1
                        # A rejection is an answer: the transmitter may
                        # re-request immediately, as it always could.
                        negotiation.retry_at = None
                    else:
                        negotiation.grant_sent_at = opportunities
                        if negotiation.link not in agent.granted_blocks:
                            agent.granted_blocks[negotiation.link] = block
                            # Both neighbourhood effects commit atomically
                            # at grant time.  Our roster serializes all
                            # control actions network-wide (the
                            # mesh-election holdoff in 802.16 plays the
                            # same role), so no competing negotiation can
                            # slip between grant and confirm; the confirm
                            # below is then pure acknowledgement.
                            self._apply_grant(agents, negotiation.link,
                                              block)
                            self._apply_confirm(agents, negotiation.link,
                                                block)
                        if self._lost():
                            lost_messages += 1
                            obs.counter("mesh16.dsch.lost_messages").inc()
                        else:
                            already = negotiation.granted is not None
                            negotiation.granted = block
                            if negotiation.confirmed and already:
                                negotiation.reconfirm_owed = True
                    progressed = True
                    continue

                # 2nd: re-grant a granted-but-unconfirmed link whose
                # confirm never arrived (lost grant or lost confirm).  Only
                # with loss enabled -- the receiver cannot distinguish a
                # lost confirm from a merely busy transmitter, so on a
                # reliable control plane this path must never fire.
                stale = [] if self._rng is None else [
                    n for n in negotiations.values()
                    if n.link[1] == node and not n.confirm_heard
                    and n.link in agent.granted_blocks
                    and not n.abandoned
                    and opportunities - n.grant_sent_at >= timeout]
                if stale:
                    negotiation = stale[0]
                    messages += 1
                    retries += 1
                    obs.counter("mesh16.dsch.regrants").inc()
                    negotiation.grant_sent_at = opportunities
                    if self._lost():
                        lost_messages += 1
                        obs.counter("mesh16.dsch.lost_messages").inc()
                    else:
                        already = negotiation.granted is not None
                        negotiation.granted = agent.granted_blocks[
                            negotiation.link]
                        if negotiation.confirmed and already:
                            negotiation.reconfirm_owed = True
                    progressed = True
                    continue

                # 3rd: confirm a grant this node received for its link
                # (or re-confirm in answer to a duplicate grant).
                mine = [n for n in negotiations.values()
                        if n.link[0] == node and n.granted is not None
                        and (not n.confirmed or n.reconfirm_owed)]
                if mine:
                    negotiation = mine[0]
                    messages += 1
                    if negotiation.confirmed:
                        retries += 1
                        obs.counter("mesh16.dsch.reconfirms").inc()
                    else:
                        negotiation.confirmed = True
                        schedule.assign(negotiation.link,
                                        negotiation.granted)
                    negotiation.reconfirm_owed = False
                    if self._lost():
                        lost_messages += 1
                        obs.counter("mesh16.dsch.lost_messages").inc()
                    else:
                        negotiation.confirm_heard = True
                    progressed = True
                    continue

                # 4th: issue a new request for an unserved outgoing link.
                waiting = [n for n in negotiations.values()
                           if n.link[0] == node and n.granted is None
                           and not n.abandoned
                           and (n.retry_at is None
                                or opportunities >= n.retry_at)
                           and not self._request_in_flight(agents, n)]
                if waiting:
                    negotiation = waiting[0]
                    if negotiation.retry_at is not None:
                        # Timeout expired with no answer: this is a retry.
                        if negotiation.timeout_retries >= self.retry_limit:
                            negotiation.abandoned = True
                            obs.counter("mesh16.dsch.abandoned").inc()
                            progressed = True
                            continue
                        negotiation.timeout_retries += 1
                        retries += 1
                        obs.counter("mesh16.dsch.rerequests").inc()
                    messages += 1
                    if self._rng is not None:
                        negotiation.retry_at = opportunities + timeout
                    if self._lost():
                        lost_messages += 1
                        obs.counter("mesh16.dsch.lost_messages").inc()
                    else:
                        agents[negotiation.link[1]].pending_grants.append(
                            negotiation)
                    progressed = True

            if all(n.confirmed and n.confirm_heard
                   for n in negotiations.values()):
                break
            if not progressed and (self._rng is None or not
                                   self._timers_pending(negotiations,
                                                        opportunities,
                                                        timeout)):
                break  # deadlock: every remaining ask was rejected

        unserved = {n.link: n.demand for n in negotiations.values()
                    if not n.confirmed}
        if self.engine is not None:
            interference = self.engine.interference_index(self.topology)
            clashes = schedule.violations(interference)
            obs.counter("mesh16.dsch.validated").inc()
            if clashes:  # pragma: no cover - protocol invariant breach
                from repro.errors import SchedulingError

                raise SchedulingError(
                    f"distributed schedule violates the interference "
                    f"relation on {clashes[:3]}")
        return DistributedOutcome(schedule=schedule, unserved=unserved,
                                  opportunities_used=opportunities,
                                  messages=messages,
                                  lost_messages=lost_messages,
                                  retries=retries)

    # -- protocol steps -------------------------------------------------------

    @staticmethod
    def _request_in_flight(agents: dict[int, _NodeAgent],
                           negotiation: _Negotiation) -> bool:
        return negotiation in agents[negotiation.link[1]].pending_grants

    @staticmethod
    def _timers_pending(negotiations: dict[Link, _Negotiation],
                        opportunities: int, timeout: int) -> bool:
        """Is anyone silently waiting out a retry timeout?

        A cycle with no protocol action is a deadlock only when nothing is
        pending: a lost leg leaves its sender idle until the timeout
        expires, which must not be mistaken for convergence failure.
        """
        for n in negotiations.values():
            if n.abandoned or (n.confirmed and n.confirm_heard):
                continue
            if (n.granted is None and n.retry_at is not None
                    and opportunities < n.retry_at):
                return True
            if (n.grant_sent_at is not None and not n.confirm_heard
                    and opportunities - n.grant_sent_at < timeout):
                return True
        return False

    def _pick_range(self, agents: dict[int, _NodeAgent],
                    negotiation: _Negotiation) -> Optional[SlotBlock]:
        """The receiver's grant decision: earliest range free in both views.

        A slot works iff the transmitter may transmit and the receiver may
        receive in it.
        """
        tx, rx = negotiation.link
        usable = [not agents[tx].no_tx[s] and not agents[rx].no_rx[s]
                  # a node cannot receive while it transmits elsewhere or
                  # transmit while it receives elsewhere:
                  and not agents[tx].no_rx[s] and not agents[rx].no_tx[s]
                  for s in range(self.frame_slots)]
        run_start, run_length = None, 0
        for slot, free in enumerate(usable):
            if free:
                if run_start is None:
                    run_start, run_length = slot, 1
                else:
                    run_length += 1
                if run_length == negotiation.demand:
                    return SlotBlock(run_start, negotiation.demand)
            else:
                run_start, run_length = None, 0
        return None

    def _apply_grant(self, agents: dict[int, _NodeAgent], link: Link,
                     block: SlotBlock) -> None:
        """The receiver broadcasts the grant; its neighbourhood reacts."""
        tx, rx = link
        agents[rx].mark(block, tx=True, rx=True)   # busy receiving
        for neighbor in self.topology.neighbors(rx):
            if neighbor != tx:
                # transmitting here would collide at the receiver
                agents[neighbor].mark(block, tx=True)

    def _apply_confirm(self, agents: dict[int, _NodeAgent], link: Link,
                       block: SlotBlock) -> None:
        """The transmitter broadcasts confirmation; its neighbourhood reacts."""
        tx, rx = link
        agents[tx].mark(block, tx=True, rx=True)   # busy transmitting
        for neighbor in self.topology.neighbors(tx):
            if neighbor != rx:
                # the transmitter's signal will interfere at this node
                agents[neighbor].mark(block, rx=True)

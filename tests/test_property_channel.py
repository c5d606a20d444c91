"""Equivalence oracle for the channel's batched transmission edges.

:class:`BroadcastChannel` gives each transmission one arrival-start and
one arrival-end kernel event for all its receivers and coupled nodes.
:class:`PerReceiverChannel` below keeps the earlier design -- one notify
and one deliver event per receiver and two notify events per coupled
node, with carrier sense and the half-duplex re-check scanning every
stored own transmission -- as an oracle.  Under Hypothesis-drawn seeds
both must produce the same trace record sequence and the same sequence
of MAC callbacks (``on_receive`` and ``on_medium_change``, with their
times and nodes), on:

- saturated DCF on a grid, with and without RTS/CTS;
- the TDMA overlay with drifting clocks;
- DCF on a spaced chain with SINR sense and jam couplings;
- radios crashing mid-flight and links going down;
- zero and non-zero propagation delay.

The oracle notifies every attached client, as the channel did before it
learned which clients carrier-sense.  Two further cases make the
sensing-only edges visible to it: the TDMA overlay behind a recorder
that forwards only ``on_receive`` (so no client senses and the channel
drops the medium edges the oracle still runs), and DCF whose oracle arm
keeps the MAC's former always-sense ``on_medium_change``.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import scenarios
from repro.analysis.scenarios import (
    make_voip_flows,
    run_tdma_scenario,
    schedule_for_flows,
)
from repro.dot11.dcf import DcfMac
from repro.dot11.params import DOT11B_PARAMS
from repro.errors import SimulationError
from repro.mesh16.frame import default_frame_config
from repro.net.topology import chain_topology, grid_topology
from repro.phy.channel import BroadcastChannel, ChannelClient, Reception
from repro.phy.models import SinrModel
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.sim.trace import Trace
from repro.traffic.voip import G729

DCF_S = 0.08
TDMA_S = 0.3
PROPAGATION = st.sampled_from([0.0, 1e-6, 4e-6])


class PerReceiverChannel(BroadcastChannel):
    """The channel with one kernel event per receiver edge (the oracle)."""

    def _notify(self, node):
        client = self._state(node).client
        if client is not None:
            client.on_medium_change()

    def transmitting(self, node):
        now = self.sim.now
        return any(start <= now < end
                   for start, end in self._state(node).transmissions)

    def transmit(self, node, frame, duration=None):
        state = self._state(node)
        if frame.src != node:
            raise SimulationError(
                f"frame src {frame.src} transmitted by node {node}")
        if self.transmitting(node):
            raise SimulationError(f"node {node} is already transmitting")
        if duration is None:
            duration = self.phy.airtime(
                frame.size_bits, basic_rate=frame.kind.value != "data")
        now = self.sim.now
        if node in self._down_nodes:
            self.trace.emit(now, "phy.tx_suppressed", node=node,
                            frame=frame.frame_id, kind=frame.kind.value)
            return duration
        tx_start, tx_end = now, now + duration
        self._prune(state, now)
        state.transmissions.append((tx_start, tx_end))
        self.trace.emit(now, "phy.tx", node=node, frame=frame.frame_id,
                        kind=frame.kind.value, duration=duration)
        for rec in state.receptions:
            if rec.overlaps(tx_start, tx_end) and not rec.corrupted:
                rec.corrupted = True
                rec.corrupt_reason = "rx_during_tx"
        self._notify(node)
        prop = self.phy.propagation_delay_s
        arrival_start, arrival_end = tx_start + prop, tx_end + prop
        for neighbor in self.topology.neighbors(node):
            if (neighbor in self._down_nodes
                    or frozenset((node, neighbor)) in self._down_links):
                continue
            receiver_state = self._state(neighbor)
            self._prune(receiver_state, now)
            reception = Reception(frame, neighbor, arrival_start, arrival_end)
            for other in receiver_state.receptions:
                if other.overlaps(arrival_start, arrival_end):
                    other.corrupted = True
                    other.corrupt_reason = other.corrupt_reason or "collision"
                    reception.corrupted = True
                    reception.corrupt_reason = "collision"
            if not reception.corrupted:
                for start, end in receiver_state.jam:
                    if reception.overlaps(start, end):
                        reception.corrupted = True
                        reception.corrupt_reason = "interference"
                        self.trace.emit(now, "phy.jam", node=neighbor)
                        break
            receiver_state.receptions.append(reception)
            self.sim.schedule_at(arrival_start, self._notify, neighbor)
            self.sim.schedule_at(arrival_end, self._deliver, reception)
        for victim in self._jam_extra.get(node, ()):
            if victim in self._down_nodes:
                continue
            victim_state = self._state(victim)
            self._prune(victim_state, now)
            victim_state.jam.append((arrival_start, arrival_end))
            for rec in victim_state.receptions:
                if rec.overlaps(arrival_start, arrival_end) \
                        and not rec.corrupted:
                    rec.corrupted = True
                    rec.corrupt_reason = "interference"
                    self.trace.emit(now, "phy.jam", node=victim,
                                    source=node)
            self.sim.schedule_at(arrival_start, self._notify, victim)
            self.sim.schedule_at(arrival_end, self._notify, victim)
        for watcher in self._sense_extra.get(node, ()):
            if watcher in self._down_nodes \
                    or watcher in self._jam_extra.get(node, ()):
                continue
            watcher_state = self._state(watcher)
            self._prune(watcher_state, now)
            watcher_state.noise.append((arrival_start, arrival_end))
            self.sim.schedule_at(arrival_start, self._notify, watcher)
            self.sim.schedule_at(arrival_end, self._notify, watcher)
        self.sim.schedule_at(tx_end, self._notify, node)
        return duration

    def _deliver(self, reception):
        state = self._state(reception.receiver)
        # The full half-duplex scan.  BroadcastChannel's backward walk
        # (run again by super()) only ever marks true overlaps, so any
        # overlap it misses shows up as a divergence.
        if not reception.corrupted:
            for start, end in state.transmissions:
                if reception.overlaps(start, end):
                    reception.corrupted = True
                    reception.corrupt_reason = "rx_during_tx"
                    break
        super()._deliver(reception)


class _ReceiveRecorder(ChannelClient):
    """Forwards ``on_receive`` to a MAC and logs it; does not sense."""

    def __init__(self, sim, node, client, calls):
        self.sim, self.node, self.client, self.calls = sim, node, client, calls

    def on_receive(self, frame, success):
        self.calls.append((self.sim.now, self.node, "rx", frame.frame_id,
                           success))
        self.client.on_receive(frame, success)


class _Recorder(_ReceiveRecorder):
    """Forwards both channel callbacks to a MAC and logs each one."""

    def on_medium_change(self):
        self.calls.append((self.sim.now, self.node, "medium"))
        self.client.on_medium_change()


class _AlwaysSenseDcf(DcfMac):
    """DCF that samples the medium on every notify, as it once did."""

    def on_medium_change(self):
        if self._medium_busy():
            self._freeze_countdown()
        elif (self._current is not None and self._access_event is None
              and self._awaiting_ack_for is None
              and self._awaiting_cts_for is None):
            self._reschedule_countdown()


def _recording(channel_cls, calls, recorder=_Recorder):
    class Recording(channel_cls):
        def attach(self, node, client):
            super().attach(node, recorder(self.sim, node, client, calls))
    return Recording


def _observed(calls, trace):
    """The MAC callbacks and trace records, with frame ids renumbered.

    Frame ids come from a process-wide counter, so two runs number the
    same frames differently; renumber them by first appearance.
    """
    ids: dict[int, int] = {}

    def renumber(frame_id):
        return ids.setdefault(frame_id, len(ids))

    records = []
    for record in trace.records():
        fields = dict(record.fields)
        if "frame" in fields:
            fields["frame"] = renumber(fields["frame"])
        records.append((record.time, record.category, sorted(fields.items())))
    callbacks = [call[:3] + (renumber(call[3]),) + call[4:]
                 if call[2] == "rx" else call for call in calls]
    return records, callbacks


def _dcf_run(channel_cls, seed, *, topology, prop, rts=False,
             couplings=None, faults=(), mac_cls=DcfMac):
    """Saturated DCF: every node keeps unicasts and broadcasts queued."""
    params = dataclasses.replace(
        DOT11B_PARAMS,
        phy=dataclasses.replace(DOT11B_PARAMS.phy, propagation_delay_s=prop),
        rts_threshold_bits=1000 if rts else None)
    sim = Simulator()
    trace = Trace()
    calls = []
    channel = _recording(channel_cls, calls)(sim, topology, params.phy,
                                              trace)
    if couplings is not None:
        channel.set_physical_couplings(couplings)
    rngs = RngRegistry(seed=seed)
    macs = {node: mac_cls(sim, channel, node, params,
                          rngs.stream(f"dcf/{node}"), lambda n, p: None,
                          trace)
            for node in topology.nodes}
    pick = rngs.stream("destinations")

    def refill():
        for node, mac in macs.items():
            while mac.queue_length < 3:
                neighbors = topology.neighbors(node)
                choice = int(pick.integers(len(neighbors) + 1))
                dst = neighbors[choice] if choice < len(neighbors) else None
                mac.send(dst, "payload", int(pick.integers(400, 4000)))
        if sim.now < DCF_S:
            sim.schedule(0.004, refill)

    for time, hook, target, down in faults:
        sim.schedule_at(time, getattr(channel, hook), target, down)
    refill()
    sim.run(until=DCF_S)
    return _observed(calls, trace)


def _assert_equivalent(run, oracle_kwargs=(), **kwargs):
    """``oracle_kwargs`` apply to the oracle run only."""
    oracle = run(PerReceiverChannel, **kwargs, **dict(oracle_kwargs))
    batched = run(BroadcastChannel, **kwargs)
    assert batched[0] == oracle[0], "trace records diverge"
    assert batched[1] == oracle[1], "MAC callbacks diverge"
    assert batched[1], "the run exercised no channel callbacks"


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rts=st.booleans(), prop=PROPAGATION)
def test_dcf_saturation_on_a_grid(seed, rts, prop):
    _assert_equivalent(_dcf_run, seed=seed, topology=grid_topology(3, 3),
                       prop=prop, rts=rts)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), prop=PROPAGATION,
       cs_multiplier=st.sampled_from([1.5, 2.5]))
def test_dcf_with_sinr_sense_and_jam_couplings(seed, prop, cs_multiplier):
    topology = chain_topology(8, spacing=90.0)
    couplings = SinrModel(cs_multiplier=cs_multiplier).channel_couplings(
        topology)
    assert couplings.sense_pairs and couplings.jam_pairs
    _assert_equivalent(_dcf_run, seed=seed, topology=topology, prop=prop,
                       couplings=couplings)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rts=st.booleans(), prop=PROPAGATION)
def test_dcf_senses_only_when_its_countdown_can_move_on_a_grid(seed, rts,
                                                                prop):
    _assert_equivalent(_dcf_run, {"mac_cls": _AlwaysSenseDcf}, seed=seed,
                       topology=grid_topology(3, 3), prop=prop, rts=rts)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), prop=PROPAGATION,
       cs_multiplier=st.sampled_from([1.5, 2.5]))
def test_dcf_senses_only_when_its_countdown_can_move_with_couplings(
        seed, prop, cs_multiplier):
    topology = chain_topology(8, spacing=90.0)
    couplings = SinrModel(cs_multiplier=cs_multiplier).channel_couplings(
        topology)
    _assert_equivalent(_dcf_run, {"mac_cls": _AlwaysSenseDcf}, seed=seed,
                       topology=topology, prop=prop, couplings=couplings)


_FAULT = st.tuples(
    st.floats(0.0, DCF_S),
    st.sampled_from(["node", "link"]),
    st.integers(0, 8),
    st.booleans())


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), prop=PROPAGATION,
       drawn=st.lists(_FAULT, min_size=1, max_size=6))
def test_crashes_and_link_cuts_mid_flight(seed, prop, drawn):
    topology = grid_topology(3, 3)
    links = sorted({tuple(sorted(link)) for link in topology.links})
    faults = [(time, "set_node_down", index, down) if kind == "node"
              else (time, "set_link_down", links[index % len(links)], down)
              for time, kind, index, down in drawn]
    _assert_equivalent(_dcf_run, seed=seed, topology=topology, prop=prop,
                       rts=True, faults=faults)


@pytest.fixture(scope="module")
def tdma_setup():
    topology = grid_topology(3, 3)
    frame = default_frame_config()
    flows = make_voip_flows(topology, 4, seed=13, codec=G729, gateway=0)
    schedule = schedule_for_flows(topology, flows, frame, method="greedy")
    return topology, frame, flows, schedule


def _tdma_run(channel_cls, seed, *, setup, prop, drift_ppm,
              recorder=_Recorder):
    topology, frame, flows, schedule = setup
    frame = dataclasses.replace(
        frame, phy=dataclasses.replace(frame.phy, propagation_delay_s=prop))
    calls = []
    with mock.patch.object(scenarios, "BroadcastChannel",
                           _recording(channel_cls, calls, recorder)):
        result = run_tdma_scenario(topology, flows, frame, schedule, TDMA_S,
                                   seed=seed, codec=G729,
                                   drift_ppm=drift_ppm, warmup_s=0.0)
    return _observed(calls, result.trace)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), prop=PROPAGATION,
       drift_ppm=st.sampled_from([10.0, 50.0]))
def test_tdma_overlay_with_drift(tdma_setup, seed, prop, drift_ppm):
    _assert_equivalent(_tdma_run, seed=seed, setup=tdma_setup, prop=prop,
                       drift_ppm=drift_ppm)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), prop=PROPAGATION,
       drift_ppm=st.sampled_from([10.0, 50.0]))
def test_tdma_overlay_without_carrier_sense(tdma_setup, seed, prop,
                                            drift_ppm):
    # No client senses: the channel schedules no medium edges, while the
    # oracle still runs them (each calls the base class's no-op).
    _assert_equivalent(_tdma_run, seed=seed, setup=tdma_setup, prop=prop,
                       drift_ppm=drift_ppm, recorder=_ReceiveRecorder)

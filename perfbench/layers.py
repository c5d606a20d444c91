"""Per-layer metrics of a traced pass.

Every workload reports every metric below; a layer the workload does not
exercise reads 0.  Times come from the span stack (:mod:`tracer`), counts
from the ``repro.obs`` counters and the wrapped entry points' call counts,
and the ``result.*`` values from the workload's own checked outputs.
"""

from __future__ import annotations

import statistics

# (name, unit, better): the per_layer list of BENCHMARK.json, in order
PER_LAYER = (
    ("ilp.solves", "count", "lower"),
    ("ilp.total_s", "s", "lower"),
    ("ilp.ms_p50", "ms", "lower"),
    ("ilp.ms_per_probe", "ms", "lower"),
    ("ilp.infeasible", "count", "lower"),
    ("ilp.budget_exhausted", "count", "lower"),
    ("ilp.decided_ratio", "ratio", "higher"),
    ("minslots.searches", "count", "lower"),
    ("minslots.probes", "count", "lower"),
    ("minslots.probes_per_search", "count", "lower"),
    ("minslots.bf_shortcuts", "count", "higher"),
    ("minslots.shortcut_ratio", "ratio", "higher"),
    ("admission.accepts", "count", "higher"),
    ("admission.rejects", "count", "lower"),
    ("admission.accept_ms_p50", "ms", "lower"),
    ("admission.reject_ms_p50", "ms", "lower"),
    ("admission.release_ms_p50", "ms", "lower"),
    ("index.calls", "count", "lower"),
    ("index.builds", "count", "lower"),
    ("index.hits", "count", "higher"),
    ("index.delta_attempts", "count", "lower"),
    ("index.delta_updates", "count", "higher"),
    ("index.delta_useful_ratio", "ratio", "higher"),
    ("index.build_ms", "ms", "lower"),
    ("index.delta_ms", "ms", "lower"),
    ("index.self_s", "s", "lower"),
    ("index.ms_per_1k_links", "ms", "lower"),
    ("bf.solves", "count", "lower"),
    ("bf.passes", "count", "lower"),
    ("bf.infeasible", "count", "lower"),
    ("bf.total_s", "s", "lower"),
    ("repair.retargets", "count", "lower"),
    ("repair.retarget_ms", "ms", "lower"),
    ("repair.local", "count", "higher"),
    ("repair.resolve", "count", "lower"),
    ("repair.ilp_probes", "count", "lower"),
    ("mobility.stream_s", "s", "lower"),
    ("mobility.batches", "count", "lower"),
    ("mobility.deltas_applied", "count", "lower"),
    ("faults.apply_ms", "ms", "lower"),
    ("sim.tdma.events", "count", "lower"),
    ("sim.dcf.events", "count", "lower"),
    ("sim.tdma.us_per_event", "us", "lower"),
    ("sim.dcf.us_per_event", "us", "lower"),
    ("sim.tdma.self_s", "s", "lower"),
    ("sim.dcf.self_s", "s", "lower"),
    ("sim.tdma.events_per_packet", "count", "lower"),
    ("sim.dcf.events_per_packet", "count", "lower"),
    ("sim.tdma.sim_rate", "s/s", "higher"),
    ("sim.dcf.sim_rate", "s/s", "higher"),
    ("channel.transmits", "count", "lower"),
    ("channel.transmit_us", "us", "lower"),
    ("channel.self_s", "s", "lower"),
    ("channel.collisions", "count", "lower"),
    ("overlay.frames_planned", "count", "lower"),
    ("overlay.tx_fragments", "count", "lower"),
    ("overlay.rx_corrupt", "count", "lower"),
    ("overlay.guard_violations", "count", "lower"),
    ("overlay.sync_adoptions", "count", "lower"),
    ("overlay.self_s", "s", "lower"),
    ("dcf.sends", "count", "lower"),
    ("dcf.self_s", "s", "lower"),
    ("dcf.mac_drops", "count", "lower"),
    ("dcf.queue_drops", "count", "lower"),
    ("forward.hops", "count", "lower"),
    ("forward.self_s", "s", "lower"),
    ("traffic.sent", "count", "higher"),
    ("traffic.delivered", "count", "higher"),
    ("result.calls_admitted", "count", "higher"),
    ("result.tdma_p95_delay_ms", "ms", "lower"),
    ("result.goodput", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
)

#: benchmark-side operation spans that mark a named layer's boundary; the
#: other ``op.*`` spans (scenario runners, the Scenario facade) are not
#: layers of their own, so their self time counts as unattributed
LAYER_OPS = frozenset({"op.admission.try_admit", "op.admission.release",
                       "op.mobility"})


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _per_instance(values: dict, prefix: str) -> list[float]:
    """The values of keys ``<prefix>.<instance>``, in key order."""
    return [value for key, value in sorted(values.items())
            if key.startswith(prefix + ".")]


def layer_metrics(tracer, ops, out, plain) -> dict:
    """All ``PER_LAYER`` metrics of one traced pass.

    ``ops`` and ``plain`` are the traced and the untraced pass's
    :class:`~workloads.Ops`.  Times are scaled to nominal machine speed
    with each pass's median speed factor.
    """
    stat, count = tracer.stat, tracer.counter
    m: dict[str, float] = {}

    ilp = stat("core.ilp.solve")
    probes = count("core.engine.ilp_probes")
    m["ilp.solves"] = count("core.ilp.solves")
    m["ilp.total_s"] = ilp.total_s
    m["ilp.ms_p50"] = _median(ilp.samples) * 1e3
    m["ilp.ms_per_probe"] = _ratio(ilp.total_s * 1e3, probes)
    m["ilp.infeasible"] = count("core.ilp.infeasible")
    m["ilp.budget_exhausted"] = count("core.minslots.probe_timeouts")
    m["ilp.decided_ratio"] = _ratio(
        m["ilp.solves"] - m["ilp.budget_exhausted"], m["ilp.solves"])

    m["minslots.searches"] = count("core.minslots.searches")
    m["minslots.probes"] = count("core.minslots.probes")
    m["minslots.probes_per_search"] = _ratio(m["minslots.probes"],
                                             m["minslots.searches"])
    m["minslots.bf_shortcuts"] = count("core.engine.bf_shortcuts")
    m["minslots.shortcut_ratio"] = _ratio(m["minslots.bf_shortcuts"],
                                          m["minslots.probes"])

    latency = out.latency_ms
    m["admission.accepts"] = len(latency.get("accept", ()))
    m["admission.rejects"] = len(latency.get("reject", ()))
    m["admission.accept_ms_p50"] = _median(latency.get("accept"))
    m["admission.reject_ms_p50"] = _median(latency.get("reject"))
    m["admission.release_ms_p50"] = _median(latency.get("release"))

    build = stat("core.engine.conflict_graph")
    delta = stat("core.engine.updated_conflict_edges")
    m["index.calls"] = stat("core.engine.conflict_index").calls
    m["index.builds"] = count("core.engine.index_builds")
    m["index.hits"] = count("core.engine.index_hits")
    m["index.delta_attempts"] = delta.calls
    m["index.delta_updates"] = count("core.engine.delta_updates")
    m["index.delta_useful_ratio"] = _ratio(m["index.delta_updates"],
                                           delta.calls)
    m["index.build_ms"] = _ratio(build.total_s * 1e3, build.calls)
    m["index.delta_ms"] = _ratio(delta.total_s * 1e3, delta.calls)
    m["index.self_s"] = (stat("core.engine.conflict_index").self_s
                         + build.self_s + delta.self_s)
    m["index.ms_per_1k_links"] = _ratio(build.total_s * 1e3,
                                        tracer.built_links / 1e3)

    m["bf.solves"] = count("core.bellman_ford.solves")
    m["bf.passes"] = count("core.bellman_ford.passes")
    m["bf.infeasible"] = count("core.bellman_ford.infeasible")
    m["bf.total_s"] = stat("core.ordering.schedule_from_order").total_s

    retarget = stat("core.repair.engine")
    m["repair.retargets"] = retarget.calls
    m["repair.retarget_ms"] = _ratio(retarget.total_s * 1e3, retarget.calls)
    m["repair.local"] = count("core.repair.local")
    m["repair.resolve"] = count("core.repair.resolve")
    m["repair.ilp_probes"] = count("core.repair.ilp_probes")

    m["mobility.stream_s"] = stat("mobility.fault_plan").total_s
    m["mobility.batches"] = sum(_per_instance(out.values, "batches"))
    m["mobility.deltas_applied"] = count("mobility.deltas_applied")
    m["faults.apply_ms"] = stat("faults.apply").total_s * 1e3

    sent = {"tdma": out.values.get("tdma.sent", 0),
            "dcf": out.values.get("dcf.sent", 0)}
    for arm in ("tdma", "dcf"):
        events = count("sim.engine.events", arm)
        run = stat("sim.engine.run", arm)
        spent = (plain.by_label.get(arm, (0.0, 0))[0]
                 * plain.clock.median_factor())
        m[f"sim.{arm}.events"] = events
        m[f"sim.{arm}.us_per_event"] = _ratio(run.total_s * 1e6, events)
        m[f"sim.{arm}.self_s"] = run.self_s
        m[f"sim.{arm}.events_per_packet"] = _ratio(events, sent[arm])
        m[f"sim.{arm}.sim_rate"] = _ratio(out.values.get("sim_s", 0.0),
                                          spent)

    channel = stat("phy.channel.transmit")
    m["channel.transmits"] = channel.calls
    m["channel.transmit_us"] = _ratio(channel.total_s * 1e6, channel.calls)
    m["channel.self_s"] = channel.self_s
    m["channel.collisions"] = out.values.get("dcf.collisions", 0)

    m["overlay.frames_planned"] = count("overlay.frames_planned")
    m["overlay.tx_fragments"] = count("overlay.tx_fragments")
    m["overlay.rx_corrupt"] = count("overlay.rx_corrupt")
    m["overlay.guard_violations"] = count("overlay.guard_violations")
    m["overlay.sync_adoptions"] = count("overlay.sync.adoptions")
    m["overlay.self_s"] = stat("overlay.transmit").self_s

    m["dcf.sends"] = stat("dot11.dcf.send").calls
    m["dcf.self_s"] = (stat("dot11.dcf.send").self_s
                       + stat("dot11.dcf.on_receive").self_s)
    m["dcf.mac_drops"] = out.values.get("dcf.mac_drops", 0)
    m["dcf.queue_drops"] = out.values.get("dcf.queue_drops", 0)

    forward = stat("net.forwarding.packet_arrived")
    m["forward.hops"] = forward.calls
    m["forward.self_s"] = forward.self_s
    m["traffic.sent"] = sent["tdma"] + sent["dcf"]
    m["traffic.delivered"] = (out.values.get("tdma.delivered", 0)
                              + out.values.get("dcf.delivered", 0))

    m["result.calls_admitted"] = sum(_per_instance(out.values,
                                                   "calls_admitted"))
    m["result.tdma_p95_delay_ms"] = out.values.get("tdma_p95_delay_ms", 0.0)
    m["result.goodput"] = _median(_per_instance(out.values, "goodput"))

    op_spans = {name for stats in tracer.phases.values() for name in stats
                if name.startswith("op.") and name not in LAYER_OPS}
    unattributed = sum(stat(name).self_s for name in op_spans)
    m["trace.overhead_frac"] = _ratio(ops.busy_s, plain.busy_s) - 1.0
    m["trace.attributed_frac"] = _ratio(
        tracer.self_total_s() - unattributed, ops.raw_busy_s)

    scale = ops.clock.median_factor()
    metrics = {}
    for name, unit, _ in PER_LAYER:
        value = float(m[name])
        if unit in ("s", "ms", "us") and not name.startswith("result."):
            value *= scale
        metrics[name] = {"value": value, "unit": unit}
    return metrics

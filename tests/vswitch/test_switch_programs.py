"""The DES-program pipeline: engine scheduling, fused and per-stage
packets, per-layer halo attribution, and the prewarm-before-install
fix."""

import dataclasses

import pytest

from repro.classifier import HitLayer
from repro.core import HaloSystem
from repro.guard import attach_standard_guard
from repro.sim.engine import Engine
from repro.sim.replay import METRIC_FALLBACK_GUARD
from repro.sim.stats import Breakdown
from repro.traffic import FlowSet, PacketStream, TrafficProfile
from repro.traffic.profiles import profile_by_name
from repro.vswitch import SwitchMode, VirtualSwitch
from repro.vswitch.switch import METRIC_FALLBACK_BUSY


@pytest.fixture
def workload():
    profile = TrafficProfile(name="t", description="", num_flows=4000,
                             num_rules=6, zipf_s=0.8)
    flow_set, rules = profile.build()
    return profile, flow_set, rules


def build_switch(rules, flow_set, mode=SwitchMode.SOFTWARE, prewarm=True):
    system = HaloSystem()
    switch = VirtualSwitch(system, mode, megaflow_tuple_capacity=1 << 14)
    switch.install_rules(rules)
    if prewarm:
        switch.prewarm_megaflows(flow_set.flows)
        switch.warm()
    return switch


def test_prewarm_before_install_rules_is_safe(workload):
    """Regression: prewarm used to raise AttributeError pre-install."""
    _profile, flow_set, _rules = workload
    system = HaloSystem()
    switch = VirtualSwitch(system, SwitchMode.SOFTWARE)
    assert switch.prewarm_megaflows(flow_set.flows[:50]) == 0


def test_packet_program_advances_engine_in_software_mode(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set)
    engine = switch.system.engine
    before = engine.now
    record = switch.process_flow(flow_set[0])
    # The whole pipeline is engine-scheduled: elapsed simulated time
    # equals the packet's accounted cycles (dyadic, so exactly).
    assert engine.now - before == record.cycles


#: Gateway packets compared between an idle and a busy engine.
GATEWAY_PACKETS = 200


@pytest.fixture(scope="module")
def gateway():
    """The Figure 3 gateway profile (20 rules) at 4,000 flows, and a
    packet sample."""
    profile = profile_by_name("many-flows-rules-1M")
    flow_set = FlowSet.generate(4000, seed=profile.seed,
                                groups=profile.num_rules)
    rules = profile.build_rules(flow_set)
    flows = PacketStream(flow_set, zipf_s=profile.zipf_s,
                         seed=5).take(GATEWAY_PACKETS)
    return flow_set, rules, flows


def _observed(switch, records, end):
    # Megaflow hits return the entry each switch derived from a rule
    # (``rule_id`` aside, the same).
    records = [(record.classification.layer,
                dataclasses.replace(record.classification.rule, rule_id=0),
                record.cycles, list(record.breakdown.parts.items()))
               for record in records]
    stats = switch.stats
    return (records, end, stats.packets,
            list(stats.breakdown.parts.items()), dict(stats.layer_hits))


def test_idle_engine_packets_match_busy_engine_packets(gateway):
    """One engine step per packet on an idle engine is exact: with a
    far-future timeout pending every packet yields per stage instead, and
    records, breakdowns, the end time and the metrics are identical."""
    flow_set, rules, flows = gateway
    idle = build_switch(rules, flow_set)
    engine = idle.system.engine
    events = engine.events_processed
    idle_records = [idle.process_flow(flow) for flow in flows]
    idle_events = engine.events_processed - events
    idle_view = _observed(idle, idle_records, engine.now)
    idle_metrics = idle.system.obs.metrics.snapshot()
    # The run breakdown is the left fold of the packets' breakdowns, and
    # each stage histogram holds that stage's cycles.
    merged = Breakdown()
    for record in idle_records:
        merged = merged.merged(record.breakdown)
    assert idle_view[3] == list(merged.parts.items())
    for stage in merged.parts:
        cycles = [record.breakdown.parts[stage] for record in idle_records
                  if stage in record.breakdown.parts]
        histogram = idle_metrics[f"vswitch.stage.{stage}_cycles"]
        assert (histogram["count"], histogram["sum"]) == (len(cycles),
                                                          sum(cycles))

    busy = build_switch(rules, flow_set)
    engine = busy.system.engine
    far = 1e15
    engine.timeout(far)

    def pmd():
        records = yield from busy.pmd_program(flows)
        return records, engine.now

    process = engine.process(pmd())
    events = engine.events_processed
    engine.run(until=far / 2)
    busy_events = engine.events_processed - events
    busy_records, busy_end = process.result
    busy_metrics = busy.system.obs.metrics.snapshot()

    assert _observed(busy, busy_records, busy_end) == idle_view
    assert busy_metrics.pop(METRIC_FALLBACK_BUSY) == GATEWAY_PACKETS
    assert METRIC_FALLBACK_BUSY not in idle_metrics
    assert busy_metrics == idle_metrics
    # A fused packet is one process start and one timeout (two events
    # with its wake); a per-stage one pays a timeout per stage.
    assert idle_events <= 3 * GATEWAY_PACKETS
    assert busy_events > 4 * GATEWAY_PACKETS


def test_guarded_packets_match_fused_packets(gateway):
    """A guard keeps every packet on the per-stage path, counted under
    ``replay.fallback.guard``, and changes none of its numbers."""
    flow_set, rules, flows = gateway
    flows = flows[:30]
    views, snapshots, events = [], [], []
    for guarded in (False, True):
        switch = build_switch(rules, flow_set)
        system = switch.system
        if guarded:
            attach_standard_guard(system)
        records = [switch.process_flow(flow) for flow in flows]
        views.append(_observed(switch, records, system.engine.now))
        snapshots.append({name: value for name, value
                          in system.obs.metrics.snapshot().items()
                          if not name.startswith("guard.")})
        events.append(system.engine.events_processed)
    fused, guarded = snapshots
    assert guarded.pop(METRIC_FALLBACK_GUARD) == len(flows)
    assert views[0] == views[1]
    assert fused == guarded
    # The guard sees every stage's timeout.
    assert events[0] <= 3 * len(flows) < 4 * len(flows) < events[1]


def _concurrent_software_pmds(flow_set, rules, flows):
    """Two software switches on cores 0 and 1 sharing one engine and one
    hierarchy; every packet starts while the other core's is pending."""
    system = HaloSystem()
    switches = [VirtualSwitch(system, SwitchMode.SOFTWARE, core_id=core,
                              megaflow_tuple_capacity=1 << 14)
                for core in (0, 1)]
    for switch in switches:
        switch.install_rules(rules)
        switch.prewarm_megaflows(flow_set.flows)
        switch.warm()
    engine = system.engine
    processes = [engine.process(switch.pmd_program(flows))
                 for switch in switches]
    engine.run()
    return ([_observed(switch, process.result, engine.now)
             for switch, process in zip(switches, processes)],
            system.obs.metrics.snapshot())


def test_busy_engine_packets_match_serial_replay(gateway, monkeypatch):
    """Packets that start on a busy engine must yield per stage: two
    software switches interleaving on one hierarchy read the same as with
    every horizon capped at the present (one engine step per stage and
    per traced operation, whatever the engine state)."""
    flow_set, rules, flows = gateway
    flows = flows[:60]
    default, metrics = _concurrent_software_pmds(flow_set, rules, flows)
    assert metrics[METRIC_FALLBACK_BUSY] >= len(flows)
    monkeypatch.setattr(Engine, "next_event_time", lambda engine: engine.now)
    serial, capped = _concurrent_software_pmds(flow_set, rules, flows)
    assert capped[METRIC_FALLBACK_BUSY] == 2 * len(flows)
    assert default == serial


def test_halo_fallthrough_books_each_layer_separately(workload):
    """Regression: a MegaFlow miss that falls through to OpenFlow used to
    book the MegaFlow search cycles under openflow_lookup."""
    _profile, flow_set, rules = workload
    # Prewarm only the head of the flow set so later flows miss the
    # megaflow layer but still match an OpenFlow rule.
    switch = build_switch(rules, flow_set, SwitchMode.HALO_NONBLOCKING,
                          prewarm=False)
    switch.prewarm_megaflows(flow_set.flows[:20])
    switch.warm()
    fallthrough = None
    for flow in flow_set.flows[2000:2200]:
        breakdown = Breakdown()
        record = switch.system.engine.run_process(
            switch.packet_program(flow))
        if record.classification.layer is HitLayer.OPENFLOW:
            fallthrough = record
            break
    assert fallthrough is not None, "no openflow fallthrough in sample"
    assert fallthrough.breakdown["megaflow_lookup"] > 0, \
        "megaflow search cycles must stay in megaflow_lookup"
    assert fallthrough.breakdown["openflow_lookup"] > 0
    # And a direct megaflow hit books nothing to the openflow stage.
    hit = switch.process_flow(flow_set[0])
    assert hit.classification.layer is HitLayer.MEGAFLOW
    assert hit.breakdown["openflow_lookup"] == 0


def test_pmd_program_concurrent_with_second_switch(workload):
    """Two PMD loops (one software, one HALO) share one engine timeline."""
    profile, flow_set, rules = workload
    system = HaloSystem()
    software = VirtualSwitch(system, SwitchMode.SOFTWARE, core_id=0,
                             megaflow_tuple_capacity=1 << 14)
    halo = VirtualSwitch(system, SwitchMode.HALO_NONBLOCKING, core_id=1,
                         megaflow_tuple_capacity=1 << 14)
    for switch in (software, halo):
        switch.install_rules(rules)
        switch.prewarm_megaflows(flow_set.flows)
        switch.warm()
    stream = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=9)
    flows = stream.take(30)
    engine = system.engine
    start = engine.now
    processes = [engine.process(software.pmd_program(flows), name="sw"),
                 engine.process(halo.pmd_program(flows), name="halo")]
    engine.run()
    elapsed = engine.now - start
    sw_records, halo_records = (p.result for p in processes)
    assert len(sw_records) == len(halo_records) == 30
    sw_busy = sum(r.cycles for r in sw_records)
    halo_busy = sum(r.cycles for r in halo_records)
    # True concurrency: the wall clock is far less than the serial sum and
    # at least the slower loop's busy time.
    assert elapsed < sw_busy + halo_busy
    assert elapsed >= max(sw_busy, halo_busy) - 1e-9
    assert all(r.classification.hit for r in sw_records)
    assert all(r.classification.hit for r in halo_records)


def test_software_breakdown_unchanged_by_scheduling(workload):
    """Per-stage numbers equal a reference computed from the traced ops
    directly — scheduling through the engine is accounting-neutral."""
    profile, flow_set, rules = workload
    first = build_switch(rules, flow_set)
    second = build_switch(rules, flow_set)
    stream_a = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=11)
    stream_b = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=11)
    for flow_a, flow_b in zip(stream_a.take(25), stream_b.take(25)):
        record_a = first.process_flow(flow_a)
        record_b = second.process_flow(flow_b)
        for stage in ("packet_io", "preprocess", "emc_lookup",
                      "megaflow_lookup", "openflow_lookup", "others"):
            assert record_a.breakdown[stage] == pytest.approx(
                record_b.breakdown[stage], rel=1e-12)

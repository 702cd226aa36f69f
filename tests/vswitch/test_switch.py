"""The instrumented virtual switch."""

import dataclasses

import pytest

from repro.classifier import HitLayer, OvsDatapath, make_flow
from repro.core import HaloSystem
from repro.sim.stats import Breakdown
from repro.traffic import FlowSet, PacketStream, TrafficProfile
from repro.vswitch import SwitchMode, VirtualSwitch
from repro.vswitch.switch import SwitchRunStats


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


def test_pipeline_stages_accounted(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set)
    record = switch.process_flow(flow_set[0])
    for stage in ("packet_io", "preprocess", "others"):
        assert record.breakdown[stage] > 0
    assert record.cycles > 150


def test_classification_matches_rules(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set)
    for flow in flow_set.flows[:80]:
        record = switch.process_flow(flow)
        assert record.classification.hit
        assert record.classification.rule.matches(flow)


def test_emc_hit_on_repeat(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set)
    flow = flow_set[0]
    switch.process_flow(flow)
    record = switch.process_flow(flow)
    assert record.classification.layer is HitLayer.EMC


def test_prewarm_populates_megaflow(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set, prewarm=False)
    installed = switch.prewarm_megaflows(flow_set.flows[:1000])
    assert installed > 0
    record = switch.process_flow(flow_set[0])
    assert record.classification.layer is HitLayer.MEGAFLOW


def test_stats_accumulate(workload):
    profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set)
    stream = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=3)
    stats = switch.process_stream(stream.take(60))
    assert stats.packets == 60
    assert stats.cycles_per_packet > 0
    assert 0.0 < stats.classification_fraction() < 1.0
    assert sum(stats.layer_hits.values()) == 60


def test_classification_fraction_counts_the_three_lookup_stages():
    stats = SwitchRunStats(breakdown=Breakdown(
        {"emc_lookup": 20, "megaflow_lookup": 30, "packet_io": 50}))
    assert stats.classification_fraction() == pytest.approx(0.5)


def test_halo_modes_classify_identically(workload):
    """Software and HALO pipelines agree on the matched rule."""
    profile, flow_set, rules = workload
    software = build_switch(rules, flow_set, SwitchMode.SOFTWARE)
    halo = build_switch(rules, flow_set, SwitchMode.HALO_NONBLOCKING)
    stream = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=5)
    flows = stream.take(40)
    for flow in flows:
        sw_record = software.process_flow(flow)
        halo_record = halo.process_flow(flow)
        assert halo_record.classification.hit == sw_record.classification.hit
        if sw_record.classification.hit:
            # Both return a rule that matches; ties across layers may pick
            # different-but-equivalent megaflows, so compare the action set.
            assert halo_record.classification.rule.matches(flow)


def test_halo_switch_faster_classification(workload):
    profile, flow_set, rules = workload
    software = build_switch(rules, flow_set, SwitchMode.SOFTWARE)
    halo = build_switch(rules, flow_set, SwitchMode.HALO_NONBLOCKING)
    stream = PacketStream(flow_set, zipf_s=0.2, seed=6)
    flows = stream.take(80)
    software.process_stream(flows)
    halo.process_stream(flows)
    sw_classification = (software.stats.breakdown["emc_lookup"]
                         + software.stats.breakdown["megaflow_lookup"])
    halo_classification = (halo.stats.breakdown["emc_lookup"]
                           + halo.stats.breakdown["megaflow_lookup"])
    assert halo_classification < sw_classification


def test_halo_blocking_mode_runs(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set, SwitchMode.HALO_BLOCKING)
    record = switch.process_flow(flow_set[1])
    assert record.classification.hit


def test_miss_layer_for_unmatched_flow():
    from repro.classifier import make_flow
    profile = TrafficProfile(name="t", description="", num_flows=100,
                             num_rules=2)
    flow_set, rules = profile.build()
    system = HaloSystem()
    switch = VirtualSwitch(system, SwitchMode.SOFTWARE)
    switch.install_rules(rules[:-1])   # drop the catch-all
    record = switch.process_flow(make_flow(0, group=77))
    assert record.classification.layer is HitLayer.MISS


@pytest.mark.parametrize("mode", list(SwitchMode))
def test_classifier_stats_match_the_datapath(workload, mode):
    # With the EMC off every packet searches the megaflow layer, and a
    # megaflow miss the OpenFlow layer, exactly as in OvsDatapath: the
    # layers' stats must agree with it in every mode.
    _profile, flow_set, rules = workload
    rules = rules[:-1]                  # drop the catch-all: punts happen
    flows = [*flow_set.flows[:40], make_flow(0, group=77)]
    switch = VirtualSwitch(HaloSystem(), mode, emc_enabled=False,
                           megaflow_tuple_capacity=1 << 14)
    switch.install_rules(rules)
    datapath = OvsDatapath(emc_enabled=False,
                           megaflow_tuple_capacity=1 << 14)
    for rule in rules:
        datapath.install_rule(rule)
    every_tuple = 0
    for flow in flows * 2:
        every_tuple += switch.megaflow.num_tuples
        got = switch.process_flow(flow).classification
        want = datapath.classify(flow)
        # Megaflow entries carry fresh rule ids; compare what they match.
        assert got.layer is want.layer
        assert (got.rule and (got.rule.mask, got.rule.match)) == \
            (want.rule and (want.rule.mask, want.rule.match))

    expected = dataclasses.replace(datapath.megaflow.stats)
    if mode is SwitchMode.HALO_NONBLOCKING:
        expected.tuple_lookups = every_tuple   # LOOKUP_NB probes them all
    assert switch.megaflow.stats == expected
    assert switch.openflow.stats == datapath.openflow.stats
    assert switch.openflow.tss.stats == datapath.openflow.tss.stats
    assert expected.classifications == 2 * len(flows)
    assert datapath.openflow.stats.controller_punts == 2


def test_classifier_stats_match_the_datapath_with_the_emc_on(workload):
    # The EMC at its defaults, as every experiment runs the switch: packet
    # by packet the software pipeline classifies like OvsDatapath, and
    # all three layers book the same stats.
    profile, flow_set, rules = workload
    rules = rules[:-1]                  # drop the catch-all: punts happen
    stream = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=7)
    flows = ([*flow_set.flows[:40], make_flow(0, group=77)] * 2
             + stream.take(400))
    switch = VirtualSwitch(HaloSystem(), SwitchMode.SOFTWARE,
                           megaflow_tuple_capacity=1 << 14)
    switch.install_rules(rules)
    datapath = OvsDatapath(megaflow_tuple_capacity=1 << 14)
    for rule in rules:
        datapath.install_rule(rule)
    for flow in flows:
        got = switch.process_flow(flow).classification
        want = datapath.classify(flow)
        assert got.layer is want.layer
        assert (got.rule and (got.rule.mask, got.rule.match)) == \
            (want.rule and (want.rule.mask, want.rule.match))

    assert switch.emc.stats == datapath.emc.stats
    assert switch.megaflow.stats == datapath.megaflow.stats
    assert switch.openflow.stats == datapath.openflow.stats
    assert switch.openflow.tss.stats == datapath.openflow.tss.stats
    assert datapath.stats.emc_hits > 0
    assert datapath.stats.misses > 0

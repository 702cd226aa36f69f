"""TCAM functional model."""

import pytest

from repro.classifier import FlowMask, make_flow
from repro.tcam import (SRAM_TCAM_SEARCH_CYCLES, TCAM_SEARCH_CYCLES, Tcam,
                        TernaryRule, exact_rule)


def test_exact_match():
    tcam = Tcam(16)
    flow = make_flow(1)
    tcam.install(exact_rule(flow.as_int(), tcam.key_bits, priority=1,
                            action="hit"))
    match = tcam.search(flow.as_int())
    assert match is not None
    assert match.rule.action == "hit"
    assert match.latency == TCAM_SEARCH_CYCLES


def test_miss_returns_none():
    tcam = Tcam(16)
    assert tcam.search(make_flow(5).as_int()) is None


def test_wildcard_match():
    tcam = Tcam(16)
    mask = FlowMask.prefixes(dst_prefix=16, src_prefix=0,
                             src_port=False, dst_port=False)
    anchor = make_flow(0, group=3)
    tcam.install(TernaryRule(value=mask.apply(anchor).as_int(),
                             mask=mask.as_int_mask(), priority=1,
                             action="grp3"))
    for index in range(1, 20):
        flow = make_flow(index, group=3)
        match = tcam.search(flow.as_int())
        assert match is not None and match.rule.action == "grp3"
    assert tcam.search(make_flow(0, group=4).as_int()) is None


def test_priority_ordering():
    tcam = Tcam(16)
    flow = make_flow(2)
    tcam.install(exact_rule(flow.as_int(), tcam.key_bits, priority=1,
                            action="low"))
    tcam.install(TernaryRule(value=0, mask=0, priority=0,
                             action="catchall"))
    tcam.install(exact_rule(flow.as_int(), tcam.key_bits, priority=9,
                            action="high"))
    assert tcam.search(flow.as_int()).rule.action == "high"
    assert tcam.search(make_flow(3).as_int()).rule.action == "catchall"


def test_update_cost_grows_with_displacement():
    """Priority-ordered inserts shuffle entries — the expensive updates."""
    tcam = Tcam(64)
    costs = []
    for priority in range(20):
        costs.append(tcam.install(TernaryRule(value=priority, mask=0xFF,
                                              priority=priority)))
    # Each new highest-priority rule displaces all existing ones.
    assert costs[-1] > costs[0]
    assert tcam.stats.update_moves > 0


def test_capacity_enforced():
    tcam = Tcam(2)
    tcam.install(exact_rule(1, tcam.key_bits))
    tcam.install(exact_rule(2, tcam.key_bits))
    assert tcam.full
    with pytest.raises(OverflowError):
        tcam.install(exact_rule(3, tcam.key_bits))


def test_remove():
    tcam = Tcam(4)
    rule = exact_rule(7, tcam.key_bits)
    tcam.install(rule)
    assert tcam.remove(rule)
    assert len(tcam) == 0
    assert not tcam.remove(rule)


def test_search_latency_constant():
    small = Tcam(4)
    large = Tcam(4096)
    assert small.search_latency() == large.search_latency()


def test_stats():
    tcam = Tcam(8)
    flow = make_flow(9)
    tcam.install(exact_rule(flow.as_int(), tcam.key_bits))
    tcam.search(flow.as_int())
    tcam.search(0)
    assert tcam.stats.searches == 2
    assert tcam.stats.hits == 1


def test_sram_tcam_search_slower_than_tcam():
    assert SRAM_TCAM_SEARCH_CYCLES > TCAM_SEARCH_CYCLES

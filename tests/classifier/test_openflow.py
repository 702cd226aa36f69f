"""OpenFlow layer: all-tuple search with priorities."""

from repro.classifier import (
    Action,
    FlowMask,
    OpenFlowLayer,
    make_flow,
    rule_for_flow,
)

MASK_A = FlowMask.prefixes(dst_prefix=16, src_prefix=0,
                           src_port=False, dst_port=False)
MASK_B = FlowMask.prefixes(dst_prefix=24, src_prefix=0,
                           src_port=False, dst_port=True)


def test_highest_priority_wins_across_tuples():
    layer = OpenFlowLayer()
    low = rule_for_flow(make_flow(0, group=1), Action.output(1), MASK_A,
                        priority=1)
    high = rule_for_flow(make_flow(0, group=1), Action.output(2), MASK_B,
                         priority=9)
    layer.install(low)
    layer.install(high)
    assert layer.classify(make_flow(5, group=1)) is high


def test_priority_tie_breaks_on_install_order():
    layer = OpenFlowLayer()
    first = rule_for_flow(make_flow(0, group=2), Action.output(1), MASK_A,
                          priority=5)
    second = rule_for_flow(make_flow(0, group=2), Action.output(2), MASK_B,
                           priority=5)
    layer.install(first)
    layer.install(second)
    assert layer.classify(make_flow(3, group=2)) is first


def test_miss_punts_to_controller():
    layer = OpenFlowLayer()
    layer.install(rule_for_flow(make_flow(0, group=1), Action.output(1),
                                MASK_A))
    assert layer.classify(make_flow(0, group=9)) is None
    assert layer.stats.controller_punts == 1


def test_tuples_searched_is_all():
    layer = OpenFlowLayer()
    layer.install(rule_for_flow(make_flow(0, group=1), Action.output(1),
                                MASK_A))
    layer.install(rule_for_flow(make_flow(0, group=2), Action.output(2),
                                MASK_B))
    layer.classify(make_flow(0, group=1))
    assert layer.tss.stats.tuple_lookups == 2


def test_remove():
    layer = OpenFlowLayer()
    rule = rule_for_flow(make_flow(0, group=1), Action.output(1), MASK_A)
    layer.install(rule)
    assert layer.remove(rule)
    assert layer.classify(make_flow(1, group=1)) is None


def test_stats_counters():
    layer = OpenFlowLayer()
    rule = rule_for_flow(make_flow(0, group=1), Action.output(1), MASK_A)
    layer.install(rule)
    layer.classify(make_flow(1, group=1))
    layer.classify(make_flow(1, group=7))
    assert layer.stats.classifications == 2
    assert layer.stats.hits == 1
    assert len(layer) == 1

"""Tuple space search (MegaFlow layer)."""

import pytest

from repro.classifier import (
    Action,
    FlowMask,
    TupleSpaceSearch,
    make_flow,
    rule_for_flow,
)

MASK_A = FlowMask.prefixes(dst_prefix=16, src_prefix=0,
                           src_port=False, dst_port=False)
MASK_B = FlowMask.prefixes(dst_prefix=24, src_prefix=0,
                           src_port=False, dst_port=True)


def test_one_tuple_per_mask():
    tss = TupleSpaceSearch()
    tss.install(rule_for_flow(make_flow(0, group=1), Action.output(1), MASK_A))
    tss.install(rule_for_flow(make_flow(0, group=2), Action.output(2), MASK_A))
    tss.install(rule_for_flow(make_flow(0, group=3), Action.output(3), MASK_B))
    assert tss.num_tuples == 2
    assert len(tss) == 3


def test_classify_finds_matching_rule():
    tss = TupleSpaceSearch()
    rule = rule_for_flow(make_flow(0, group=4), Action.output(7), MASK_A)
    tss.install(rule)
    found, searched = tss.classify(make_flow(12, group=4))
    assert found is rule
    assert searched >= 1
    assert tss.stats.hits == 1


def test_classify_miss_searches_all_tuples():
    tss = TupleSpaceSearch()
    tss.install(rule_for_flow(make_flow(0, group=1), Action.output(1), MASK_A))
    tss.install(rule_for_flow(make_flow(0, group=2), Action.output(2), MASK_B))
    found, searched = tss.classify(make_flow(0, group=9))
    assert found is None
    assert searched == 2


def test_first_match_semantics():
    """MegaFlow returns on the first tuple that matches (search order)."""
    tss = TupleSpaceSearch()
    first = rule_for_flow(make_flow(0, group=5), Action.output(1), MASK_A)
    second = rule_for_flow(make_flow(0, group=5), Action.output(2), MASK_B)
    tss.install(first)
    tss.install(second)
    found, searched = tss.classify(make_flow(3, group=5))
    assert found is first
    assert searched == 1


def test_classify_all_returns_every_match():
    tss = TupleSpaceSearch()
    first = rule_for_flow(make_flow(0, group=5), Action.output(1), MASK_A)
    second = rule_for_flow(make_flow(0, group=5), Action.output(2), MASK_B)
    tss.install(first)
    tss.install(second)
    matches = tss.classify_all(make_flow(3, group=5))
    assert {rule.rule_id for rule in matches} == {first.rule_id,
                                                  second.rule_id}


def test_remove_rule():
    tss = TupleSpaceSearch()
    rule = rule_for_flow(make_flow(0, group=6), Action.output(1), MASK_A)
    tss.install(rule)
    assert tss.remove(rule)
    found, _ = tss.classify(make_flow(1, group=6))
    assert found is None
    assert not tss.remove(rule)


def test_halo_queries_cover_all_tuples():
    tss = TupleSpaceSearch()
    tss.install(rule_for_flow(make_flow(0, group=1), Action.output(1), MASK_A))
    tss.install(rule_for_flow(make_flow(0, group=2), Action.output(2), MASK_B))
    flow = make_flow(5, group=1)
    queries = tss.halo_queries(flow)
    assert len(queries) == 2
    for table, key in queries:
        assert len(key) == 16
    # The masked keys differ across tuples (different masks).
    assert queries[0][1] != queries[1][1]


def test_lookups_per_classification_stat():
    tss = TupleSpaceSearch()
    tss.install(rule_for_flow(make_flow(0, group=1), Action.output(1), MASK_A))
    tss.install(rule_for_flow(make_flow(0, group=2), Action.output(2), MASK_B))
    tss.classify(make_flow(1, group=1))
    tss.classify(make_flow(1, group=999))
    assert tss.stats.classifications == 2
    assert tss.stats.tuple_lookups >= 2


def test_many_rules_same_tuple():
    tss = TupleSpaceSearch(tuple_capacity=512)
    rules = [rule_for_flow(make_flow(0, group=g), Action.output(g), MASK_A)
             for g in range(100)]
    for rule in rules:
        assert tss.install(rule)
    assert tss.num_tuples == 1
    for group in range(100):
        found, _ = tss.classify(make_flow(7, group=group))
        assert found is not None
        assert found.action.argument == group

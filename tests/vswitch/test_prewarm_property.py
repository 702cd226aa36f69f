"""``prewarm_megaflows`` against a linear scan over ``Rule.matches``.

The switch prewarms by probing one dict per distinct rule mask on packed
ints; the oracle here tests every flow against every rule, takes the best
by (priority, lower rule_id) and deduplicates by (megaflow mask, masked
flow), as the switch's original rule-by-rule prewarm did.
"""

from hypothesis import example, given, settings, strategies as st

from repro.classifier import Action, FiveTuple, FlowMask, Rule
from repro.classifier.rules import megaflow_mask_for
from repro.core import HaloSystem
from repro.vswitch import SwitchMode, VirtualSwitch

#: Overlapping masks: prefixes of one another, a field mask that is no
#: prefix, and a catch-all.
MASKS = [
    FlowMask.prefixes(src_prefix=0, dst_prefix=16, src_port=False,
                      dst_port=True, proto=False),
    FlowMask.prefixes(src_prefix=0, dst_prefix=24, src_port=False,
                      dst_port=False, proto=False),
    FlowMask.prefixes(src_prefix=8, dst_prefix=16, src_port=False,
                      dst_port=False, proto=True),
    FlowMask.prefixes(src_prefix=16, dst_prefix=8, src_port=True,
                      dst_port=False, proto=False),
    FlowMask(src_ip_mask=0x00FF00FF, dst_ip_mask=0xFFFF0000,
             src_port_mask=0, dst_port_mask=0x0FF0, proto_mask=0),
    FlowMask.prefixes(src_prefix=0, dst_prefix=0, src_port=False,
                      dst_port=False, proto=False),
]

#: Flows drawn from a few values per field, so rules anchored on them
#: overlap and repeat (mask, match) pairs.
pool_flows = st.builds(
    FiveTuple,
    src_ip=st.sampled_from([0x0A000001, 0x0A000102, 0x0A010203]),
    dst_ip=st.sampled_from([0xAC100001, 0xAC100101, 0xAC110001]),
    src_port=st.sampled_from([1024, 2048]),
    dst_port=st.sampled_from([80, 443]),
    proto=st.sampled_from([6, 17]),
)
#: Flows from the whole space, which few rules match.
any_flows = st.builds(
    FiveTuple,
    src_ip=st.integers(0, 0xFFFFFFFF),
    dst_ip=st.integers(0, 0xFFFFFFFF),
    src_port=st.integers(0, 0xFFFF),
    dst_port=st.integers(0, 0xFFFF),
    proto=st.integers(0, 0xFF),
)
#: (mask index, anchor flow, priority, output port, install slot):
#: priorities tie often, and rules install sorted by slot, so install order
#: need not follow rule_id order.
rule_specs = st.tuples(st.integers(0, len(MASKS) - 1), pool_flows,
                       st.integers(0, 3), st.integers(0, 3),
                       st.integers(0, 3))


def build_rules(specs):
    """The rules in install order; their ids follow ``specs`` order."""
    rules = [(slot, Rule(mask=MASKS[index], match=MASKS[index].apply(anchor),
                         action=Action.output(port), priority=priority))
             for index, anchor, priority, port, slot in specs]
    return [rule for _slot, rule in sorted(rules, key=lambda pair: pair[0])]


def linear_prewarm(rules, flows):
    """{megaflow mask: {(mask, match, action, priority)}} in install order."""
    tuples = {}
    seen = set()
    for flow in flows:
        matches = [rule for rule in rules if rule.matches(flow)]
        if not matches:
            continue
        best = max(matches, key=lambda rule: (rule.priority, -rule.rule_id))
        mask = megaflow_mask_for(best.mask)
        match = mask.apply(flow)
        if (mask, match) in seen:
            continue
        seen.add((mask, match))
        tuples.setdefault(mask, set()).add(
            (mask, match, best.action, best.priority))
    return tuples


A = FiveTuple(0x0A000001, 0xAC100001, 1024, 80, 6)
B = FiveTuple(0x0A010203, 0xAC100101, 2048, 443, 17)


@settings(max_examples=150, deadline=None)
@given(st.lists(rule_specs, min_size=1, max_size=12),
       st.lists(st.one_of(pool_flows, any_flows), max_size=40))
# Installed in the order r2 r4 r1 r3 r0: duplicate (mask, match) pairs
# whose better rule installs first (r1 before r0) and last (r3 after r4),
# a priority tie across masks whose lower rule_id sits in the later mask
# group (r1 against r2), and a flow nothing matches.
@example([(0, A, 1, 0, 2), (0, A, 2, 1, 1), (1, A, 2, 2, 0),
          (4, B, 2, 3, 1), (4, B, 2, 0, 0)],
         [A, B, A, FiveTuple(1, 2, 3, 4, 5)])
def test_prewarm_installs_what_a_linear_scan_picks(specs, flows):
    rules = build_rules(specs)
    switch = VirtualSwitch(HaloSystem(), SwitchMode.SOFTWARE,
                           megaflow_tuple_capacity=1 << 10)
    switch.install_rules(rules)
    installed = switch.prewarm_megaflows(flows)

    expected = linear_prewarm(rules, flows)
    got = {entry.mask: {(rule.mask, rule.match, rule.action, rule.priority)
                        for _key, rule in entry.table.items()}
           for entry in switch.megaflow.tuples()}
    assert list(got) == list(expected)      # tuple (search) order
    assert got == expected
    assert installed == sum(len(entries) for entries in expected.values())

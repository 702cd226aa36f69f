"""Property-based tests on flows, masks, and classification layers."""

from hypothesis import given, settings, strategies as st

from repro.classifier import Action, FiveTuple, FlowMask, rule_for_flow
from repro.classifier.rules import megaflow_entry

flows = st.builds(
    FiveTuple,
    src_ip=st.integers(0, 0xFFFFFFFF),
    dst_ip=st.integers(0, 0xFFFFFFFF),
    src_port=st.integers(0, 0xFFFF),
    dst_port=st.integers(0, 0xFFFF),
    proto=st.integers(0, 0xFF),
)

masks = st.builds(
    FlowMask.prefixes,
    src_prefix=st.integers(0, 32),
    dst_prefix=st.integers(0, 32),
    src_port=st.booleans(),
    dst_port=st.booleans(),
    proto=st.booleans(),
)

#: Any in-width bit pattern per field, not only prefixes.
field_masks = st.builds(
    FlowMask,
    src_ip_mask=st.integers(0, 0xFFFFFFFF),
    dst_ip_mask=st.integers(0, 0xFFFFFFFF),
    src_port_mask=st.integers(0, 0xFFFF),
    dst_port_mask=st.integers(0, 0xFFFF),
    proto_mask=st.integers(0, 0xFF),
)


@settings(max_examples=200, deadline=None)
@given(flows)
def test_pack_unpack_roundtrip(flow):
    assert FiveTuple.unpack(flow.pack()) == flow


@settings(max_examples=200, deadline=None)
@given(flows, masks)
def test_mask_apply_idempotent(flow, mask):
    once = mask.apply(flow)
    assert mask.apply(once) == once


@settings(max_examples=200, deadline=None)
@given(flows, st.one_of(masks, field_masks))
def test_int_mask_consistency(flow, mask):
    assert (flow.as_int() & mask.as_int_mask()
            == mask.apply(flow).as_int())


@settings(max_examples=200, deadline=None)
@given(flows, masks)
def test_rule_built_from_flow_matches_it(flow, mask):
    rule = rule_for_flow(flow, Action.drop(), mask)
    assert rule.matches(flow)


@settings(max_examples=200, deadline=None)
@given(flows, flows, masks)
def test_rule_match_iff_masked_equal(anchor, candidate, mask):
    rule = rule_for_flow(anchor, Action.drop(), mask)
    assert rule.matches(candidate) == (mask.apply(candidate)
                                       == mask.apply(anchor))


@settings(max_examples=150, deadline=None)
@given(flows, masks)
def test_megaflow_entry_always_matches_source_flow(flow, mask):
    rule = rule_for_flow(mask.apply(flow), Action.drop(), mask)
    entry = megaflow_entry(rule, flow)
    assert entry.matches(flow)


@settings(max_examples=150, deadline=None)
@given(flows, flows, masks)
def test_megaflow_refinement_soundness(anchor, other, mask):
    """A megaflow entry only matches flows the originating rule matches."""
    rule = rule_for_flow(mask.apply(anchor), Action.drop(), mask)
    entry = megaflow_entry(rule, anchor)
    if entry.matches(other):
        assert rule.matches(other)

"""5-tuples and wildcard masks."""

import pytest

from repro.classifier import FiveTuple, FlowMask, KEY_BYTES, make_flow


def test_pack_roundtrip():
    flow = FiveTuple(0x0A000001, 0xC0A80001, 1234, 80, 6)
    assert len(flow.pack()) == KEY_BYTES
    assert FiveTuple.unpack(flow.pack()) == flow


def test_pack_distinct_flows_distinct_keys():
    keys = {make_flow(index).pack() for index in range(2000)}
    assert len(keys) == 2000


def test_field_validation():
    with pytest.raises(ValueError):
        FiveTuple(1 << 32, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        FiveTuple(0, 0, 70000, 0, 0)
    with pytest.raises(ValueError):
        FiveTuple(0, 0, 0, 0, 300)


def test_as_int_104_bits():
    flow = FiveTuple(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF, 0xFFFF, 0xFF)
    assert flow.as_int() == (1 << 104) - 1


def test_exact_mask_is_identity():
    mask = FlowMask.exact()
    flow = make_flow(42)
    assert mask.apply(flow) == flow
    assert mask.is_exact


def test_prefix_mask_zeroes_low_bits():
    mask = FlowMask.prefixes(src_prefix=8, dst_prefix=16,
                             src_port=False, dst_port=False)
    flow = FiveTuple(0x0A0B0C0D, 0xC0A80102, 555, 80, 17)
    masked = mask.apply(flow)
    assert masked.src_ip == 0x0A000000
    assert masked.dst_ip == 0xC0A80000
    assert masked.src_port == 0
    assert masked.dst_port == 0
    assert masked.proto == 17


def test_zero_prefix_wildcards_everything():
    mask = FlowMask.prefixes(src_prefix=0, dst_prefix=0,
                             src_port=False, dst_port=False, proto=False)
    masked = mask.apply(make_flow(7))
    assert (masked.src_ip, masked.dst_ip, masked.src_port,
            masked.dst_port, masked.proto) == (0, 0, 0, 0, 0)


def test_invalid_prefix_rejected():
    with pytest.raises(ValueError):
        FlowMask.prefixes(src_prefix=33)


@pytest.mark.parametrize("field, bits", [
    ("src_ip_mask", 32), ("dst_ip_mask", 32), ("src_port_mask", 16),
    ("dst_port_mask", 16), ("proto_mask", 8)])
def test_mask_wider_than_its_field_rejected(field, bits):
    # A wider mask would spill into the neighbouring field of as_int_mask
    # (a 0x1FFFF source-port mask keeps a bit of the destination address),
    # and a negative one would make as_int_mask negative.
    for value in (1 << bits, (2 << bits) - 1, -1):
        with pytest.raises(ValueError, match=field):
            FlowMask(**{field: value})
    full = (1 << bits) - 1
    assert getattr(FlowMask(**{field: full}), field) == full


def test_mask_apply_idempotent():
    mask = FlowMask.prefixes(src_prefix=12, dst_prefix=20, src_port=False)
    flow = make_flow(99)
    assert mask.apply(mask.apply(flow)) == mask.apply(flow)


def test_key_of_matches_apply_pack():
    mask = FlowMask.prefixes(dst_prefix=24)
    flow = make_flow(3)
    assert mask.key_of(flow) == mask.apply(flow).pack()


def test_as_int_mask_consistent_with_apply():
    mask = FlowMask.prefixes(src_prefix=16, dst_prefix=8, dst_port=False)
    flow = make_flow(55)
    assert (flow.as_int() & mask.as_int_mask()
            == mask.apply(flow).as_int())


def test_make_flow_grouped_destination():
    grouped = [make_flow(index, group=5) for index in range(50)]
    assert len({flow.dst_ip >> 8 for flow in grouped}) == 1   # same /24
    assert len({flow.pack() for flow in grouped}) == 50       # distinct flows


def test_make_flow_groups_differ():
    a = make_flow(1, group=1)
    b = make_flow(1, group=2)
    assert (a.dst_ip >> 16) != (b.dst_ip >> 16)


def test_str_rendering():
    text = str(FiveTuple(0x0A000001, 0xC0A80001, 1234, 80, 6))
    assert "10.0.0.1" in text and "192.168.0.1" in text

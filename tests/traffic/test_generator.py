"""Traffic generation."""

import collections

import pytest

from repro.traffic import FlowSet, PacketStream, key_stream, random_keys


def test_flow_set_deterministic():
    first = FlowSet.generate(100, seed=5)
    second = FlowSet.generate(100, seed=5)
    assert list(first.flows) == list(second.flows)


def test_flow_set_distinct_flows():
    flows = FlowSet.generate(5000, seed=6)
    assert len({flow.pack() for flow in flows.flows}) == 5000


def test_flow_set_seed_changes_population():
    assert (list(FlowSet.generate(50, seed=1).flows)
            != list(FlowSet.generate(50, seed=2).flows))


def test_grouped_flow_set_round_robin():
    flows = FlowSet.generate(100, seed=7, groups=4)
    group_octets = collections.Counter(flow.dst_ip >> 16 & 0xFF
                                       for flow in flows.flows)
    assert len(group_octets) == 4
    assert all(count == 25 for count in group_octets.values())


def test_uniform_stream_covers_flows():
    flows = FlowSet.generate(50, seed=8)
    stream = PacketStream(flows, zipf_s=0.0, seed=9)
    seen = {flow.pack() for flow in stream.take(2000)}
    assert len(seen) >= 45


def test_zipf_stream_concentrates_traffic():
    flows = FlowSet.generate(1000, seed=10)
    skewed = PacketStream(flows, zipf_s=1.2, seed=11)
    counts = collections.Counter(flow.pack() for flow in skewed.take(5000))
    top_share = sum(count for _key, count in counts.most_common(10)) / 5000
    assert top_share > 0.25

    uniform = PacketStream(flows, zipf_s=0.0, seed=11)
    counts_uniform = collections.Counter(
        flow.pack() for flow in uniform.take(5000))
    top_share_uniform = sum(
        count for _key, count in counts_uniform.most_common(10)) / 5000
    assert top_share > top_share_uniform * 2


def test_stream_deterministic():
    flows = FlowSet.generate(100, seed=12)
    a = PacketStream(flows, zipf_s=0.5, seed=13).take(100)
    b = PacketStream(flows, zipf_s=0.5, seed=13).take(100)
    assert a == b


def test_stream_rejects_empty_flow_set():
    with pytest.raises(ValueError):
        PacketStream(FlowSet(()))


def test_key_stream_packs_flows():
    flows = FlowSet.generate(20, seed=14)
    keys = key_stream(flows, 50, seed=15)
    assert len(keys) == 50
    assert all(len(key) == 16 for key in keys)
    valid = {flow.pack() for flow in flows.flows}
    assert all(key in valid for key in keys)


def test_random_keys_distinct():
    keys = random_keys(3000, seed=16)
    assert len(set(keys)) == 3000
    assert all(len(key) == 16 for key in keys)


def test_random_keys_deterministic():
    assert random_keys(100, seed=17) == random_keys(100, seed=17)


def _random_keys_by_row(count, key_bytes=16, seed=2):
    """``random_keys`` as first written: one ``bytes`` per row of the
    draw, then every key checked against the ones before it."""
    import numpy as np

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(count, key_bytes), dtype=np.uint8)
    keys = [bytes(row) for row in data]
    seen = set()
    for index, key in enumerate(keys):
        while key in seen:
            key = bytes(rng.integers(0, 256, size=key_bytes, dtype=np.uint8))
        seen.add(key)
        keys[index] = key
    return keys


@pytest.mark.parametrize("count,key_bytes,seed,repeats", [
    (0, 16, 2, False), (1, 16, 2, False), (5000, 16, 5, False),
    (3000, 8, 11, False), (4000, 4, 1, False), (200, 1, 3, True),
    (256, 1, 7, True), (30_000, 2, 9, True), (20_000, 3, 6, True)])
def test_random_keys_matches_row_by_row_draw(count, key_bytes, seed,
                                             repeats):
    """The sliced draw returns the row-by-row list for every argument,
    including 1- to 3-byte keys whose draws repeat and force redraws
    (``repeats``), which consume the generator in the same order."""
    import numpy as np

    first_draw = np.random.default_rng(seed).integers(
        0, 256, size=(count, key_bytes), dtype=np.uint8)
    assert (len({row.tobytes() for row in first_draw}) < count) == repeats
    keys = random_keys(count, key_bytes=key_bytes, seed=seed)
    assert keys == _random_keys_by_row(count, key_bytes, seed)
    assert len(set(keys)) == count
    assert all(type(key) is bytes and len(key) == key_bytes for key in keys)


def test_random_keys_rejects_empty_keys():
    with pytest.raises(ValueError, match="key_bytes"):
        random_keys(3, key_bytes=0)

"""Ring interconnect: slice hashing and hop latency."""

import collections
import random

import pytest

from repro.sim import Interconnect, LatencyParams


@pytest.fixture
def ring():
    return Interconnect(16, LatencyParams())


def test_slice_hash_deterministic(ring):
    assert ring.slice_of_line(12345) == ring.slice_of_line(12345)


def test_slice_hash_roughly_uniform(ring):
    counts = collections.Counter(ring.slice_of_line(line)
                                 for line in range(16_000))
    for slice_id in range(16):
        assert 16_000 / 16 * 0.8 < counts[slice_id] < 16_000 / 16 * 1.2


def test_consecutive_lines_spread(ring):
    slices = {ring.slice_of_line(line) for line in range(64)}
    assert len(slices) >= 12   # near-perfect interleaving


def test_hops_symmetric(ring):
    for src in range(16):
        for dst in range(16):
            assert ring.hops(src, dst) == ring.hops(dst, src)


def test_hops_shortest_path(ring):
    assert ring.hops(0, 0) == 0
    assert ring.hops(0, 1) == 1
    assert ring.hops(0, 15) == 1   # wraps around
    assert ring.hops(0, 8) == 8    # farthest point


def test_transfer_latency_scales_with_hops(ring):
    near = ring.transfer_latency(0, 1)
    far = ring.transfer_latency(0, 8)
    assert far == 8 * near


def test_stats_accumulate(ring):
    ring.transfer_latency(0, 4)
    ring.transfer_latency(0, 2)
    assert ring.stats.messages == 2
    assert ring.stats.total_hops == 6
    assert ring.average_hops() == pytest.approx(3.0)


def test_table_hash_stable_per_table(ring):
    table_addr = 0x1234000
    assert (ring.slice_of_table(table_addr)
            == ring.slice_of_table(table_addr))


def test_table_hash_spreads_tables(ring):
    slices = {ring.slice_of_table(0x10000 + index * 0x4000)
              for index in range(40)}
    assert len(slices) >= 10


def test_single_stop_ring():
    ring = Interconnect(1, LatencyParams())
    assert ring.slice_of_line(999) == 0
    assert ring.hops(0, 0) == 0


def test_invalid_stop_count():
    with pytest.raises(ValueError):
        Interconnect(0, LatencyParams())


def test_splitmix64_matches_published_reference():
    # One mixer serves slice hashing, the hash unit, RSS and the fault
    # RNG; seeded with 0, the generator must emit the reference
    # splitmix64.c stream (Vigna), so no copy can drift.
    from repro.faults import SplitMix64
    from repro.hashtable import mix64
    from repro.sim.interconnect import mix64 as sim_mix64

    assert mix64 is sim_mix64
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_region_sweeps_leave_the_slice_memo_alone():
    """Warming, probing and flushing a table hash its lines without the
    memo, and place each line in the slice the memoised hash names."""
    from repro.core import HaloSystem
    from repro.traffic.generator import random_keys

    system = HaloSystem()
    table = system.create_table(1 << 12, name="sweep")
    for index, key in enumerate(random_keys(1 << 11, seed=3)):
        table.insert(key, index)
    hierarchy = system.hierarchy
    ring = hierarchy.interconnect
    layout = table.layout

    def lines(region):
        return range(hierarchy.line_of(region.base),
                     hierarchy.line_of(region.base + region.size - 1) + 1)

    memo = dict(ring._slice_memo)
    system.warm_table(table)
    assert hierarchy.llc_resident_fraction(layout.buckets.base,
                                           layout.buckets.size) == 1.0
    system.flush_table(table)
    assert ring._slice_memo == memo
    for region in (layout.metadata, layout.buckets, layout.key_values):
        flushed = region is not layout.metadata
        region_lines = lines(region)
        slices = [ring.slice_of_line(line) for line in region_lines]
        assert list(ring.slices_of_lines(region_lines[0],
                                         region_lines[-1])) == slices
        for line, slice_id in zip(region_lines, slices):
            assert hierarchy.llc[slice_id].contains(line) != flushed


def test_mix64_array_matches_mix64():
    import numpy as np

    from repro.sim.interconnect import mix64, mix64_array

    rng = random.Random(64)
    values = [0, 1, 2 ** 63, 2 ** 64 - 1] + [rng.getrandbits(64)
                                              for _ in range(4096)]
    array = np.array(values, dtype=np.uint64)
    assert mix64_array(array).tolist() == [mix64(v) for v in values]
    assert array.tolist() == values   # the input is left alone


@pytest.mark.parametrize("first,last", [
    (0, -1), (5, 5), (0, 20), (13, 48), (2 ** 40 - 3, 2 ** 40 + 17)])
def test_slices_of_lines_match_slice_of_line(ring, monkeypatch, first, last):
    """Chunk boundaries (7 lines a pass here) never show."""
    from repro.sim import interconnect

    monkeypatch.setattr(interconnect, "SWEEP_CHUNK_LINES", 7)
    assert list(ring.slices_of_lines(first, last)) == [
        ring.slice_of_line(line) for line in range(first, last + 1)]


def test_slice_memo_never_exceeds_its_cap(ring, monkeypatch):
    from repro.sim.interconnect import mix64

    monkeypatch.setattr(Interconnect, "_SLICE_MEMO_CAP", 64)
    for line in list(range(1000)) + list(range(500)):
        assert ring.slice_of_line(line) == mix64(line) % 16
        assert len(ring._slice_memo) <= 64

"""Memory hierarchy: core path, CHA path, inclusion, lock bits."""

import pytest

from repro.sim import MemoryHierarchy, SKYLAKE_SP_16C, TINY_MACHINE


def test_cold_access_goes_to_dram(hierarchy):
    result = hierarchy.core_access(0, 0x100000)
    assert result.level == "DRAM"
    assert result.latency >= hierarchy.latency.cha_dram


def test_second_access_hits_l1(hierarchy):
    addr = 0x200000
    hierarchy.core_access(0, addr)
    result = hierarchy.core_access(0, addr)
    assert result.level == "L1"
    assert result.latency == hierarchy.latency.l1_hit


def test_llc_hit_after_private_flush(hierarchy):
    addr = 0x300000
    hierarchy.core_access(0, addr)
    hierarchy.flush_private(0)
    result = hierarchy.core_access(0, addr)
    assert result.level == "LLC"
    assert result.latency > hierarchy.latency.l2_hit


def test_llc_latency_exceeds_l2(hierarchy):
    addr = 0x340000
    hierarchy.core_access(0, addr)
    hierarchy.flush_private(0)
    llc = hierarchy.core_access(0, addr)
    hierarchy.flush_private(0)
    hierarchy.core_access(0, addr)
    l1 = hierarchy.core_access(0, addr)
    assert llc.latency > l1.latency


def test_nuca_latency_varies_with_distance(hierarchy):
    """Different slices cost different latencies from one core (NUCA)."""
    latencies = set()
    for offset in range(0, 64 * 64, 64):
        addr = 0x400000 + offset
        hierarchy.warm_llc(addr, 64)
        result = hierarchy.core_access(15, addr)
        if result.level == "LLC":
            latencies.add(result.latency)
        hierarchy.flush_private(15)
    assert len(latencies) > 3


def test_cross_core_read_from_private_cache(hierarchy):
    addr = 0x500000
    hierarchy.core_access(0, addr)          # core 0 holds the line
    # Evict from LLC but keep private copies to force the PRIV path.
    line = hierarchy.line_of(addr)
    hierarchy.llc[hierarchy.slice_of(addr)].invalidate(line)
    result = hierarchy.core_access(1, addr)
    assert result.level == "PRIV"
    assert result.latency > hierarchy.latency.llc_hit


def test_store_invalidates_other_sharers(hierarchy):
    addr = 0x600000
    hierarchy.core_access(0, addr)
    hierarchy.core_access(1, addr)
    read_latency = hierarchy.core_access(1, addr).latency
    result = hierarchy.core_access(2, addr, write=True)
    assert result.latency >= hierarchy.latency.snoop_invalidate


def test_cha_access_never_fills_private_caches(hierarchy):
    addr = 0x700000
    hierarchy.warm_llc(addr, 64)
    before = [cache.resident_lines for cache in hierarchy.l1]
    result = hierarchy.cha_access(3, addr)
    assert result.level == "LLC"
    after = [cache.resident_lines for cache in hierarchy.l1]
    assert before == after


def test_cha_llc_access_faster_than_core(hierarchy):
    addr = 0x800000
    hierarchy.warm_llc(addr, 64)
    cha = hierarchy.cha_access(hierarchy.slice_of(addr), addr)
    core = hierarchy.core_access(0, addr)
    assert cha.latency < core.latency


def test_cha_dram_access_faster_than_core_dram(hierarchy):
    cha = hierarchy.cha_access(0, 0x900000)
    core = hierarchy.core_access(0, 0xA00000)
    assert cha.level == "DRAM" and core.level == "DRAM"
    assert cha.latency < core.latency


def test_cha_dram_fill_lands_in_llc(hierarchy):
    addr = 0xB00000
    hierarchy.cha_access(0, addr)
    assert hierarchy.llc_resident_fraction(addr, 64) == 1.0


def test_inclusive_llc_back_invalidates(tiny_hierarchy):
    """Evicting a line from the small LLC drops private copies too."""
    hierarchy = tiny_hierarchy
    tracked = 0x10000
    hierarchy.core_access(0, tracked)
    line = hierarchy.line_of(tracked)
    assert hierarchy.l1[0].contains(line)
    # Flood the LLC until the tracked line is evicted.
    addr = 0x100000
    while hierarchy.llc[hierarchy.slice_of(tracked)].contains(line):
        hierarchy.warm_llc(addr, 64)
        addr += 64
    assert not hierarchy.l1[0].contains(line)
    assert not hierarchy.l2[0].contains(line)


def test_lock_line_requires_residency(hierarchy):
    addr = 0xC00000
    assert not hierarchy.lock_line(addr)       # not resident yet
    hierarchy.warm_llc(addr, 64)
    assert hierarchy.lock_line(addr)
    assert hierarchy.line_locked(addr)
    assert hierarchy.unlock_line(addr)
    assert not hierarchy.line_locked(addr)


def test_store_against_locked_line_pays_retries(hierarchy):
    addr = 0xD00000
    hierarchy.warm_llc(addr, 64)
    hierarchy.lock_line(addr)
    locked = hierarchy.core_access(0, addr, write=True)
    assert locked.lock_retries >= 1
    hierarchy.unlock_line(addr)
    unlocked = hierarchy.core_access(1, addr + 64, write=True)
    assert unlocked.lock_retries == 0


def test_warm_llc_installs_all_lines(hierarchy):
    base, size = 0xE00000, 64 * 32
    count = hierarchy.warm_llc(base, size)
    assert count == 32
    assert hierarchy.llc_resident_fraction(base, size) == 1.0


def test_flush_region_evicts_everywhere(hierarchy):
    base = 0xF00000
    hierarchy.core_access(0, base)
    hierarchy.flush_region(base, 64)
    result = hierarchy.core_access(0, base)
    assert result.level == "DRAM"


def test_reset_stats(hierarchy):
    hierarchy.core_access(0, 0x1000)
    hierarchy.reset_stats()
    assert hierarchy.l1[0].stats.accesses == 0
    assert hierarchy.dram.stats.accesses == 0


def test_slice_mapping_matches_interconnect(hierarchy):
    addr = 0x123456
    assert (hierarchy.slice_of(addr)
            == hierarchy.interconnect.slice_of_line(hierarchy.line_of(addr)))


def _flush_region_per_line(hierarchy, base, size):
    """``flush_region`` one line at a time: each private cache's
    ``invalidate`` and the snoop filter's ``record_eviction`` per line per
    core, then the line's LLC slice."""
    from repro.sim.interconnect import mix64

    first = hierarchy.line_of(base)
    last = hierarchy.line_of(base + size - 1)
    for line in range(first, last + 1):
        for core in range(hierarchy.machine.cores):
            hierarchy.l1[core].invalidate(line)
            hierarchy.l2[core].invalidate(line)
            hierarchy.snoop_filter.record_eviction(line, core)
        hierarchy.llc[mix64(line) % len(hierarchy.llc)].invalidate(line)


def _hierarchy_state(hierarchy):
    """Every cache set in LRU order with its state bits, every cache's
    stats, and the snoop filter's sharer sets and metadata holders."""
    import dataclasses

    caches = [(cache.name,
               {index: list(cache_set.items())
                for index, cache_set in cache._sets.items()},
               dataclasses.astuple(cache.stats))
              for cache in hierarchy.l1 + hierarchy.l2 + hierarchy.llc]
    snoop = hierarchy.snoop_filter
    return caches, snoop._sharers, snoop._metadata_holder


@pytest.mark.parametrize("seed", range(4))
def test_region_sweeps_match_per_line_loop(seed):
    """``flush_region``'s bulk passes against the per-line loop, over
    random regions both shorter and longer than what each cache holds,
    with some LLC lines locked; ``warm_llc`` and
    ``llc_resident_fraction`` run between flushes."""
    import random

    from repro.sim import MachineParams
    from repro.sim.params import KB, CacheParams

    machine = MachineParams(cores=4, llc_slices=4,
                            l1d=CacheParams(4 * KB, 4),
                            l2=CacheParams(16 * KB, 4),
                            llc_slice=CacheParams(64 * KB, 8))
    rng = random.Random(seed)
    bulk, per_line = MemoryHierarchy(machine), MemoryHierarchy(machine)
    span = 6000     # lines: beyond the LLC's 4096, so fills evict
    for round_index in range(12):
        for _ in range(1500):
            core = rng.randrange(machine.cores)
            addr = rng.randrange(span) * 64 + rng.randrange(64)
            write = rng.random() < 0.3
            for hierarchy in (bulk, per_line):
                hierarchy.core_access(core, addr, write=write)
        for _ in range(20):
            addr = rng.randrange(span) * 64
            assert bulk.lock_line(addr) == per_line.lock_line(addr)
        base = rng.randrange(span) * 64 + rng.randrange(64)
        size = rng.choice((1, 64, rng.randrange(64 * 40),
                           rng.randrange(64 * span)))
        bulk.flush_region(base, size)
        _flush_region_per_line(per_line, base, size)
        assert _hierarchy_state(bulk) == _hierarchy_state(per_line)
        if round_index % 3 == 0:
            base = rng.randrange(span) * 64
            size = rng.randrange(64 * 300)
            assert bulk.warm_llc(base, size) == per_line.warm_llc(base, size)
            assert _hierarchy_state(bulk) == _hierarchy_state(per_line)
        assert (bulk.llc_resident_fraction(0, span * 64)
                == per_line.llc_resident_fraction(0, span * 64))
    locked = sum(cache.locked_lines for cache in bulk.llc)
    assert locked > 0


def _small_machine(llc_slice=None):
    """4 cores, 4 LLC slices of 128 sets x 8 ways: a 4,096-line LLC."""
    from repro.sim import MachineParams
    from repro.sim.params import KB, CacheParams

    return MachineParams(cores=4, llc_slices=4,
                         l1d=CacheParams(4 * KB, 4),
                         l2=CacheParams(16 * KB, 4),
                         llc_slice=llc_slice or CacheParams(64 * KB, 8))


def _warm_per_line(hierarchy, base, size):
    """``warm_llc``'s reference: ``_install_llc`` of each line in order."""
    first = hierarchy.line_of(base)
    last = hierarchy.line_of(base + size - 1)
    slice_of_line = hierarchy.interconnect.slice_of_line
    for line in range(first, last + 1):
        hierarchy._install_llc(slice_of_line(line), line)
    return last - first + 1


def _spy_installs(monkeypatch):
    """Record every line a ``Cache.fill_many`` call installs, skipped
    lines left out."""
    from repro.sim.cache import Cache

    filled = []
    fill_lines = Cache._fill_lines
    monkeypatch.setattr(Cache, "_fill_lines", lambda cache, lines, victims: (
        filled.extend(lines), fill_lines(cache, lines, victims))[1])
    return filled


def _stale_sharer(hierarchy, line, below):
    """Leave ``line`` listed as core 0's in the snoop filter, held in core
    0's private caches, but absent from the LLC: core 1's store drops core
    0's sharer bit without invalidating its copy, fills of lines of its
    set under ``below`` evict it from its slice, and core 0's store hit
    then lists it again."""
    hierarchy.core_access(0, line * 64)
    hierarchy.core_access(1, line * 64, write=True)
    slice_id = hierarchy.interconnect.slice_of_line(line)
    llc = hierarchy.llc[slice_id]
    candidate = below + (line - below) % llc.num_sets
    while llc.contains(line):
        candidate -= llc.num_sets
        if hierarchy.interconnect.slice_of_line(candidate) == slice_id:
            hierarchy._install_llc(slice_id, candidate)
    hierarchy.core_access(0, line * 64, write=True)
    assert not llc.contains(line)
    assert hierarchy.snoop_filter.sharers_of(line) == {0}


#: Region first line for the warm-up tests, clear of the busy pre-state's
#: lines (0 to 6,000).
REGION = 20_000
#: Region lines the "stale" pre-state leaves with a sharer and no LLC copy.
STALE_LINES = (REGION, REGION + 129, REGION + 4000, REGION + 9000)


def _pre_state(hierarchy, kind, lines):
    """Set up one pre-state before warming ``lines`` lines from
    :data:`REGION`; returns the lines whose sets the survivors-only rule
    must refuse (locked or resident region lines)."""
    import random

    rng = random.Random(len(kind) + lines)
    if kind in ("busy", "locked", "resident", "stale"):
        # Dirty lines, private sharers and a full LLC outside the region.
        for _ in range(3000):
            core = rng.randrange(4)
            addr = rng.randrange(6000) * 64 + rng.randrange(64)
            hierarchy.core_access(core, addr, write=rng.random() < 0.3)
        for _ in range(20):
            hierarchy.lock_line(rng.randrange(6000) * 64)
    refused = ()
    if kind == "locked":
        # Locked lines in sets the region maps to.
        refused = (REGION - 128, REGION - 7 * 128, REGION + 50_000)
        for line in refused:
            hierarchy.core_access(2, line * 64)
            assert hierarchy.lock_line(line * 64)
    if kind == "resident":
        # Region lines already in the LLC (one of them dirty), the last
        # one the last line of its set.
        refused = (REGION + 5, REGION + 300, REGION + lines - 1)
        hierarchy.core_access(3, refused[0] * 64, write=True)
        for line in refused[1:]:
            hierarchy.core_access(3, line * 64)
    if kind == "stale":
        for line in STALE_LINES:
            _stale_sharer(hierarchy, line, below=REGION)
    if kind == "overfull":
        # A set holding more lines than ways (as the guard's occupancy
        # test builds one): fills keep it over, so the rule must refuse.
        cache = hierarchy.llc[hierarchy.interconnect.slice_of_line(REGION)]
        cache_set = cache._set_for(REGION)
        for extra in range(cache.assoc + 2):
            cache_set[REGION - (extra + 1) * cache.num_sets] = 0
        refused = (REGION,)
    return refused


@pytest.mark.parametrize("kind", ["empty", "busy", "locked", "resident",
                                  "stale", "overfull"])
@pytest.mark.parametrize("lines", [1, 64, 4095, 4096, 5000, 12_288])
def test_warm_llc_matches_per_line_install(kind, lines, monkeypatch):
    """``warm_llc`` against ``_install_llc`` of each line in order, from 1
    line to 3x the LLC, after pre-states with dirty, locked, private and
    stale-sharer lines: the same return value, every cache set in LRU
    order with its state bits, every cache's stats and locked-line count,
    and the snoop filter.  The lines ``Cache.fill_many`` installs show
    where its survivors-only rule fired: a set that held no locked line,
    none of the region's lines and at most ``assoc`` lines takes only its
    last ``assoc`` region lines; any other set takes all of them."""
    from collections import Counter

    from repro.sim.cache import LOCKED

    machine = _small_machine()
    bulk, per_line = MemoryHierarchy(machine), MemoryHierarchy(machine)
    for hierarchy in (bulk, per_line):
        must_refuse = _pre_state(hierarchy, kind, lines)
    assert _hierarchy_state(bulk) == _hierarchy_state(per_line)
    first = REGION
    region = range(first, first + lines)
    llc = bulk.llc
    num_sets, assoc = llc[0].num_sets, llc[0].assoc
    slice_of_line = bulk.interconnect.slice_of_line
    cells = Counter((slice_of_line(line), line & (num_sets - 1))
                    for line in region)
    refused = set()
    for slice_id, index in cells:
        cache_set = llc[slice_id]._sets.get(index, {})
        if len(cache_set) > assoc or any(
                line in region or state & LOCKED
                for line, state in cache_set.items()):
            refused.add((slice_id, index))
    filled = _spy_installs(monkeypatch)

    base = first * 64 + 17
    size = lines * 64 - 17
    assert bulk.warm_llc(base, size) == _warm_per_line(per_line, base, size)
    assert _hierarchy_state(bulk) == _hierarchy_state(per_line)
    assert ([cache.locked_lines for cache in bulk.llc]
            == [cache.locked_lines for cache in per_line.llc])
    expected = sum(count if cell in refused else min(count, assoc)
                   for cell, count in cells.items())
    assert len(filled) == expected
    if lines == 12_288:
        # The rule fires, except in the sets it must refuse.
        assert expected < lines // 2
        assert bool(refused) == (kind != "empty")
        assert refused >= {(slice_of_line(line), line & (num_sets - 1))
                           for line in must_refuse}
        if kind == "stale":
            # Some stale-sharer line was skipped, so back-invalidated
            # without being filled.
            assert set(STALE_LINES) - set(filled)


def test_warm_llc_splits_sets_longer_than_a_block(monkeypatch):
    """A one-set slice puts every region line in one set, so a region of
    more than ``SWEEP_CHUNK_LINES`` lines splits each slice's set over
    several blocks.  They fill in line order and match the per-line loop,
    and the survivors-only rule fires in every block of a slice with no
    locked line: each block's own lines are fresh to its set."""
    from collections import Counter

    from repro.sim.interconnect import SWEEP_CHUNK_LINES
    from repro.sim.params import CacheParams

    machine = _small_machine(llc_slice=CacheParams(8 * 64, 8))
    bulk, per_line = MemoryHierarchy(machine), MemoryHierarchy(machine)
    for hierarchy in (bulk, per_line):
        hierarchy.core_access(0, 0)
        hierarchy.core_access(1, 64, write=True)
        assert hierarchy.lock_line(0)
    assert bulk.llc[0].num_sets == 1
    filled = _spy_installs(monkeypatch)
    first, lines = 10, 10_000
    assert bulk.warm_llc(first * 64, lines * 64) == _warm_per_line(
        per_line, first * 64, lines * 64)
    assert _hierarchy_state(bulk) == _hierarchy_state(per_line)
    slice_of_line = bulk.interconnect.slice_of_line
    locked_slice = slice_of_line(0)
    expected = 0
    for start in range(first, first + lines, SWEEP_CHUNK_LINES):
        block = range(start, min(start + SWEEP_CHUNK_LINES, first + lines))
        for slice_id, count in Counter(map(slice_of_line, block)).items():
            expected += count if slice_id == locked_slice else min(count, 8)
    assert len(filled) == expected

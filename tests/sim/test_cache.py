"""Set-associative cache model."""

import pytest

from repro.sim import Cache, CacheParams


def make_cache(size=4096, assoc=4, line=64, name="c"):
    return Cache(name, CacheParams(size, assoc, line))


def test_miss_then_hit():
    cache = make_cache()
    assert not cache.lookup(5)
    cache.fill(5)
    assert cache.lookup(5)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_line_of_uses_line_size():
    cache = make_cache()
    assert cache.line_of(0) == 0
    assert cache.line_of(63) == 0
    assert cache.line_of(64) == 1


def test_lru_eviction_order():
    cache = make_cache(size=4 * 64, assoc=4)  # one set
    lines = [cache.set_index(0)]  # all of these map to set 0
    base_lines = [i * cache.num_sets for i in range(5)]
    for line in base_lines[:4]:
        cache.fill(line)
    cache.lookup(base_lines[0])          # refresh line 0
    victim = cache.fill(base_lines[4])   # must evict LRU = base_lines[1]
    assert victim == base_lines[1]
    assert cache.contains(base_lines[0])


def test_fill_existing_line_no_eviction():
    cache = make_cache()
    cache.fill(7)
    assert cache.fill(7) is None
    assert cache.resident_lines == 1


def test_dirty_writeback_accounting():
    cache = make_cache(size=2 * 64, assoc=2)
    lines = [i * cache.num_sets for i in range(3)]
    cache.fill(lines[0], dirty=True)
    cache.fill(lines[1])
    cache.fill(lines[2])   # evicts dirty lines[0]
    assert cache.stats.writebacks == 1


def test_invalidate():
    cache = make_cache()
    cache.fill(9)
    assert cache.invalidate(9)
    assert not cache.contains(9)
    assert not cache.invalidate(9)   # already gone
    assert cache.stats.invalidations == 1


def test_lock_bit_blocks_invalidation():
    cache = make_cache()
    cache.fill(3)
    assert cache.lock(3)
    assert not cache.invalidate(3)   # snoop miss (paper §4.4)
    assert cache.contains(3)
    assert cache.unlock(3)
    assert cache.invalidate(3)


def test_lock_bit_pins_line_against_eviction():
    cache = make_cache(size=2 * 64, assoc=2)
    lines = [i * cache.num_sets for i in range(3)]
    cache.fill(lines[0])
    cache.fill(lines[1])
    cache.lock(lines[0])
    victim = cache.fill(lines[2])
    assert victim == lines[1]        # the unlocked line went instead
    assert cache.contains(lines[0])


def test_lock_missing_line_fails():
    cache = make_cache()
    assert not cache.lock(42)
    assert not cache.is_locked(42)


def test_utilisation():
    cache = make_cache(size=8 * 64, assoc=4)
    assert cache.utilisation() == 0.0
    cache.fill(1)
    cache.fill(2)
    assert cache.utilisation() == pytest.approx(2 / 8)


def test_flush():
    cache = make_cache()
    for line in range(10):
        cache.fill(line)
    cache.flush()
    assert cache.resident_lines == 0


def test_write_marks_dirty_on_hit():
    cache = make_cache(size=2 * 64, assoc=2)
    lines = [i * cache.num_sets for i in range(3)]
    cache.fill(lines[0])
    cache.lookup(lines[0], write=True)
    cache.fill(lines[1])
    cache.fill(lines[2])   # evicts lines[0], which is now dirty
    assert cache.stats.writebacks == 1


def test_rejects_non_power_of_two_sets():
    with pytest.raises(ValueError):
        Cache("bad", CacheParams(3 * 64, 1, 64))


def test_rejects_too_small_geometry():
    with pytest.raises(ValueError):
        Cache("bad", CacheParams(32, 4, 64))


def test_miss_rate():
    cache = make_cache()
    cache.lookup(0)
    cache.fill(0)
    cache.lookup(0)
    assert cache.stats.miss_rate == pytest.approx(0.5)
    cache.stats.reset()
    assert cache.stats.accesses == 0


@pytest.mark.parametrize("seed", range(4))
def test_invalidate_range_matches_invalidate(seed):
    """One ``invalidate_range`` against ``invalidate`` per line, over
    ranges shorter and longer than the resident lines (the two walks),
    with locked and dirty lines: the same sets in LRU order with their
    state bits, the same stats, the same count."""
    import dataclasses
    import random

    rng = random.Random(seed)
    bulk, per_line = make_cache(), make_cache()
    for _ in range(30):
        for _ in range(40):
            line = rng.randrange(400)
            dirty = rng.random() < 0.3
            for cache in (bulk, per_line):
                cache.fill(line, dirty=dirty)
        for _ in range(4):
            line = rng.randrange(400)
            assert bulk.lock(line) == per_line.lock(line)
        first = rng.randrange(400)
        last = first + rng.choice((-1, 0, rng.randrange(16),
                                   rng.randrange(400)))
        dropped = sum(per_line.invalidate(line)
                      for line in range(first, last + 1))
        assert bulk.invalidate_range(first, last) == dropped
        assert ({index: list(lines.items())
                 for index, lines in bulk._sets.items()}
                == {index: list(lines.items())
                    for index, lines in per_line._sets.items()})
        assert (dataclasses.astuple(bulk.stats)
                == dataclasses.astuple(per_line.stats))
    assert bulk.locked_lines > 0

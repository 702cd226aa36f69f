"""Differential test: ``Cache`` against a list-per-set LRU reference.

The reference below is written from the replacement rules alone (LRU
order, the HALO lock bit pinning a line, the whole-set-locked fallback to
true LRU, a dirty victim counting a writeback) and shares no code with
:class:`repro.sim.cache.Cache`.  Both are driven with the same lookups,
fills, bulk fills, locks, unlocks, invalidations and flushes; every
return value and the statistics block must agree after every step, and
``locked_lines`` must equal a walk over the live cache's lines.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.sim import Cache, CacheParams
from repro.sim.cache import LOCKED, CacheStats

#: 4 sets x 2 ways; 16 lines put 4 candidates on every set, so evictions,
#: locked victims and fully locked sets all occur in short sequences.
NUM_SETS = 4
ASSOC = 2
LINES = 16


class ReferenceCache:
    """Each set is a list of ``[line, dirty, locked]``, least recent first."""

    def __init__(self, num_sets, assoc):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [[] for _ in range(num_sets)]
        self.stats = CacheStats()
        self.locked_victim_skips = 0
        self.all_locked_fallbacks = 0
        self.refused_invalidations = 0

    def _find(self, line):
        entries = self.sets[line % self.num_sets]
        for position, entry in enumerate(entries):
            if entry[0] == line:
                return entries, position
        return entries, None

    def lookup(self, line, write):
        entries, position = self._find(line)
        if position is None:
            self.stats.misses += 1
            return False
        entry = entries.pop(position)
        if write:
            entry[1] = True
        entries.append(entry)
        self.stats.hits += 1
        return True

    def fill(self, line, dirty):
        entries, position = self._find(line)
        if position is not None:
            entry = entries.pop(position)
            if dirty:
                entry[1] = True
            entries.append(entry)
            return None
        victim = None
        if len(entries) >= self.assoc:
            unlocked = [i for i, entry in enumerate(entries) if not entry[2]]
            if not unlocked:
                chosen = 0
                self.all_locked_fallbacks += 1
            else:
                chosen = unlocked[0]
                if chosen:
                    self.locked_victim_skips += 1
            victim_line, victim_dirty, _locked = entries.pop(chosen)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
            victim = victim_line
        entries.append([line, dirty, False])
        return victim

    def fill_many(self, lines):
        victims = [self.fill(line, False) for line in lines]
        return [victim for victim in victims if victim is not None]

    def flush(self):
        self.sets = [[] for _ in range(self.num_sets)]

    def invalidate(self, line):
        entries, position = self._find(line)
        if position is None:
            return False
        if entries[position][2]:
            self.refused_invalidations += 1
            return False
        entries.pop(position)
        self.stats.invalidations += 1
        return True

    def set_lock(self, line, locked):
        entries, position = self._find(line)
        if position is None:
            return False
        entries[position][2] = locked
        return True

    def contains(self, line):
        return self._find(line)[1] is not None

    def is_locked(self, line):
        entries, position = self._find(line)
        return position is not None and entries[position][2]

    @property
    def resident_lines(self):
        return sum(len(entries) for entries in self.sets)

    @property
    def locked_lines(self):
        return sum(1 for entries in self.sets for entry in entries
                   if entry[2])


def make_pair():
    cache = Cache("oracle", CacheParams(NUM_SETS * ASSOC * 64, ASSOC, 64))
    assert (cache.num_sets, cache.assoc) == (NUM_SETS, ASSOC)
    return cache, ReferenceCache(NUM_SETS, ASSOC)


def apply(cache, reference, op):
    kind, line, flag = op
    if kind == "fill_many":
        return cache.fill_many(line), reference.fill_many(line)
    if kind == "flush":
        return cache.flush(), reference.flush()
    if kind == "lookup":
        return cache.lookup(line, write=flag), reference.lookup(line, flag)
    if kind == "fill":
        return cache.fill(line, dirty=flag), reference.fill(line, flag)
    if kind == "lock":
        return cache.lock(line), reference.set_lock(line, True)
    if kind == "unlock":
        return cache.unlock(line), reference.set_lock(line, False)
    assert kind == "invalidate"
    return cache.invalidate(line), reference.invalidate(line)


def run_differential(ops):
    cache, reference = make_pair()
    for step, op in enumerate(ops):
        got, want = apply(cache, reference, op)
        assert got == want, f"step {step} {op}: cache {got!r} != {want!r}"
        assert cache.stats == reference.stats, f"step {step} {op}"
        _kind, lines, _flag = op
        for line in lines if isinstance(lines, list) else [lines]:
            assert cache.contains(line) == reference.contains(line)
            assert cache.is_locked(line) == reference.is_locked(line)
        assert cache.resident_lines == reference.resident_lines
        assert cache.locked_lines == reference.locked_lines
        assert cache.locked_lines == sum(
            1 for cache_set in cache._sets.values()
            for state in cache_set.values() if state & LOCKED)
    return reference


#: Single-line kinds twice over, so they are most of the draws: a flush
#: comes about once in 14 operations and leaves state to build up.
KINDS = (["lookup", "fill", "fill", "lock", "unlock", "invalidate"] * 2
         + ["fill_many", "flush"])

#: A bulk fill: up to three runs of rows of one set each, so runs longer
#: than the ways (which ``fill_many`` may skip into) come up often.
batch_strategy = st.lists(
    st.tuples(st.integers(0, NUM_SETS - 1),
              st.lists(st.integers(0, LINES // NUM_SETS - 1),
                       min_size=1, max_size=5)),
    max_size=3).map(lambda runs: [row * NUM_SETS + index
                                  for index, rows in runs for row in rows])


def _op_of(kind):
    if kind == "fill_many":
        return st.tuples(st.just(kind), batch_strategy, st.just(False))
    if kind == "flush":
        return st.just((kind, 0, False))
    return st.tuples(st.just(kind), st.integers(0, LINES - 1), st.booleans())


op_strategy = st.sampled_from(KINDS).flatmap(_op_of)


@settings(max_examples=300, deadline=None)
@given(st.lists(op_strategy, max_size=120))
# Locked LRU line is skipped: 0 and 4 share set 0, 0 is locked, 8 evicts 4.
@example([("fill", 0, True), ("fill", 4, False), ("lock", 0, False),
          ("fill", 8, False)])
# Whole set locked: true LRU (the dirty, locked 0) goes, with a writeback.
@example([("fill", 0, True), ("fill", 4, False), ("lock", 0, False),
          ("lock", 4, False), ("fill", 8, False), ("invalidate", 4, False)])
# A bulk fill evicts a locked line from a whole-locked set, repeats a
# line and refills one it evicted; a flush drops the locks it counted.
@example([("fill", 0, True), ("fill", 4, False), ("lock", 0, False),
          ("lock", 4, False), ("fill_many", [8, 12, 8, 0, 1], False),
          ("lock", 1, False), ("flush", 0, False), ("lock", 1, False)])
# Bulk-filled runs longer than the ways: set 1's skips its first line
# after the dirty 1 goes with a writeback; set 2's locked line, set 3's
# resident run line and set 0's repeated line refuse the skip.
@example([("fill", 1, True), ("fill", 2, False), ("lock", 2, False),
          ("fill", 3, False),
          ("fill_many", [5, 9, 13, 6, 10, 14, 3, 7, 11, 0, 4, 0, 8], False)])
def test_cache_matches_list_reference(ops):
    run_differential(ops)


def _batch(rng):
    """A seeded bulk fill: up to three runs of rows of one set each."""
    runs = [(rng.randrange(NUM_SETS), rng.randrange(1, 6))
            for _ in range(rng.randrange(4))]
    return [rng.randrange(LINES // NUM_SETS) * NUM_SETS + index
            for index, length in runs for _ in range(length)]


def test_random_sequences_cover_the_lock_paths(monkeypatch):
    """Seeded long sequences reach every path the oracle exists to check,
    bulk fills that skip lines included."""
    installed = []
    fill_lines = Cache._fill_lines
    monkeypatch.setattr(Cache, "_fill_lines", lambda cache, lines, victims: (
        installed.extend(lines), fill_lines(cache, lines, victims))[1])
    rng = random.Random(2019)
    kinds = ["lookup", "fill", "fill", "fill", "lock", "unlock", "invalidate",
             "fill_many"]
    totals = CacheStats()
    skips = fallbacks = refused = bulk = 0
    for _ in range(20):
        ops = [(kind, _batch(rng) if kind == "fill_many"
                else rng.randrange(LINES),
                kind != "fill_many" and rng.random() < 0.5)
               for kind in (rng.choice(kinds) for _ in range(400))]
        ops.insert(rng.randrange(400), ("flush", 0, False))
        bulk += sum(len(op[1]) for op in ops if op[0] == "fill_many")
        reference = run_differential(ops)
        totals = totals.merged(reference.stats)
        skips += reference.locked_victim_skips
        fallbacks += reference.all_locked_fallbacks
        refused += reference.refused_invalidations
    assert skips > 0 and fallbacks > 0 and refused > 0
    assert totals.writebacks > 0 and totals.evictions > totals.writebacks
    # ``fill_many`` skipped some lines, and installed most.
    assert bulk // 2 < len(installed) < bulk

"""The live cuckoo table against the frozen reference table.

``reference_cuckoo.py`` is the table as it stood before its hot paths
were rewritten.  The same operation sequence (inserts until kicks and
failed inserts happen, updates, deletes, probes, hits and misses under
a recording :class:`~repro.sim.trace.Tracer`, repeated so the
lookup-trace memo answers some of them, the EMC's install: probe a
key, delete another, then ``insert_planned`` through the probe's plan
where the reference inserts the key, and ``insert_many`` batches with
repeated and present keys where the reference inserts one key at a
time) drives both tables, and after every operation the two must agree
on the return value, the bucket and key-value arrays, the freed-slot
order, the next unused slot, the stats, the optimistic lock and the
emitted trace.  ``hash_bytes`` and ``hash_many`` are held to the
reference's ``hash_bytes`` over every key length from 1 to 64 bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hashtable import CuckooHashTable
from repro.hashtable.hashing import hash_bytes, hash_many, signature_of
from repro.sim.trace import Tracer

from . import reference_cuckoo as reference

KEY_SIZES = (8, 16, 32)
#: 64 slots: eight buckets of eight ways fill within a few dozen inserts.
CAPACITY = 64
NUM_BUCKETS = CAPACITY // 8
#: Keys per pool: more than twice the table, so inserts fail.
POOL_SIZE = 160
#: Pairs of keys sharing both buckets and the signature per pool, so
#: probes chase key-value slots that hold another key.
COLLIDING_PAIRS = 24


@functools.lru_cache(maxsize=None)
def key_pool(key_bytes):
    """``POOL_SIZE`` keys of one size, ``COLLIDING_PAIRS`` pairs among
    them, in a seeded order."""
    rng = random.Random(key_bytes)
    seed = CuckooHashTable(CAPACITY, key_bytes=key_bytes).seed
    by_geometry = {}
    colliding = []
    while len(colliding) < 2 * COLLIDING_PAIRS:
        key = rng.randbytes(key_bytes)
        primary_hash = reference.hash_bytes(key, seed)
        geometry = (primary_hash % NUM_BUCKETS, signature_of(primary_hash))
        other = by_geometry.pop(geometry, None)
        if other is None:
            by_geometry[geometry] = key
        elif other != key:
            colliding += [other, key]
    pool = colliding + [rng.randbytes(key_bytes)
                        for _ in range(POOL_SIZE - len(colliding))]
    rng.shuffle(pool)
    return pool


key_index = st.integers(0, POOL_SIZE - 1)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), key_index, st.integers(0, 99)),
        st.tuples(st.just("fill"),
                  st.lists(key_index, min_size=1, max_size=32)),
        st.tuples(st.just("batch"),
                  st.lists(key_index, min_size=1, max_size=48)),
        st.tuples(st.just("delete"), key_index),
        st.tuples(st.just("lookups"),
                  st.lists(key_index, min_size=1, max_size=8)),
        st.tuples(st.just("lookup_at"), key_index),
        st.tuples(st.just("probe"), key_index),
        st.tuples(st.just("planned"), key_index, key_index,
                  st.integers(0, 99)),
    ),
    max_size=60)


class Pair:
    """A live and a reference table fed the same operations."""

    def __init__(self, key_bytes, traced=True):
        self.keys = key_pool(key_bytes)
        self.traced = traced
        self.live = CuckooHashTable(CAPACITY, key_bytes=key_bytes)
        self.reference = reference.CuckooHashTable(
            CAPACITY, key_bytes=key_bytes)
        self.memo_hits = 0
        self.updates = 0
        self.slot_reuses = 0
        self.planned_inserts = 0
        self.batch_updates = 0
        self.batch_failures = 0

    def _both(self, call):
        """``call(table)`` on both tables; both results and, when traced,
        both traces (untraced tables never open a recording)."""
        results = []
        for table in (self.live, self.reference):
            if not self.traced:
                results.append((call(table),))
                continue
            table.tracer.begin()
            value = call(table)
            trace = table.tracer.take()
            results.append((value, list(trace.ops), trace.mix))
        return results

    def check(self, call):
        live, ref = self._both(call)
        assert live == ref
        self.assert_same_state()
        return live[0]

    def assert_same_state(self):
        live, ref = self.live, self.reference
        assert live._buckets == ref._buckets
        assert live._kv == ref._kv
        assert live._freed_slots == ref._freed_slots
        assert live._next_slot == ref._next_slot
        assert len(live) == len(ref)
        assert (dataclasses.astuple(live.stats)
                == dataclasses.astuple(ref.stats))
        assert live.lock.counter == ref.lock.counter
        assert live.lock.stats == ref.lock.stats
        assert live._mutations == ref._mutations

    def insert(self, key, value):
        size, freed = len(self.live), len(self.live._freed_slots)
        if self.check(lambda table: table.insert(key, value)):
            self.updates += len(self.live) == size
            self.slot_reuses += len(self.live._freed_slots) < freed

    def insert_planned(self, key, other, value):
        """Probe ``key``, delete ``other`` unless it is ``key``, then
        insert ``key`` through the probe's plan (the reference probes
        again)."""
        plan = self.live.probe(key)
        if other != key:
            self.check(lambda table: table.delete(other))
        self.planned_inserts += 1
        self.check(lambda table: (table.insert_planned(plan, value)
                                  if table is self.live
                                  else table.insert(key, value)))

    def insert_batch(self, indices):
        """One ``insert_many`` on the live table, a loop of ``insert``
        on the reference.  A batch repeats its first key at its end, so
        some pair always updates a key the batch placed or found."""
        pairs = [(self.keys[index], 100 + position)
                 for position, index in enumerate(indices + indices[:1])]
        size = len(self.live)
        results = self.check(lambda table: (
            table.insert_many(pairs) if table is self.live
            else [table.insert(key, value) for key, value in pairs]))
        self.batch_failures += results.count(False)
        self.batch_updates += results.count(True) - (len(self.live) - size)

    def lookup(self, key):
        cached = self.live._trace_memo.get(key)
        if cached is not None and cached[0] == self.live._mutations:
            self.memo_hits += 1
        return self.check(lambda table: table.lookup(key))

    def run(self, ops):
        keys = self.keys
        for op in ops:
            kind = op[0]
            if kind == "insert":
                self.insert(keys[op[1]], op[2])
            elif kind == "fill":
                for index in op[1]:
                    self.insert(keys[index], index)
            elif kind == "batch":
                self.insert_batch(op[1])
            elif kind == "delete":
                key = keys[op[1]]
                self.check(lambda table: table.delete(key))
            elif kind == "lookups":
                # Twice: the second pass can answer from the trace memo.
                for index in op[1] + op[1]:
                    self.lookup(keys[index])
            elif kind == "planned":
                self.insert_planned(keys[op[1]], keys[op[2]], op[3])
            elif kind == "lookup_at":
                key = keys[op[1]]
                self.check(lambda table: table.lookup(key, key_addr=0x7000))
            else:
                key = keys[op[1]]
                live, ref = (table.probe(key)
                             for table in (self.live, self.reference))
                assert (dataclasses.astuple(live)
                        == dataclasses.astuple(ref))


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("key_bytes", KEY_SIZES)
@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_live_table_matches_reference(key_bytes, traced, ops):
    Pair(key_bytes, traced).run(ops)


@pytest.mark.parametrize("key_bytes", KEY_SIZES)
def test_fixed_run_reaches_every_path(key_bytes):
    """A fixed long run shows the property's paths are not vacuous:
    kicks, failed inserts, updates, signature collisions, slot reuse and
    memoised lookups all happen, and planned inserts run."""
    rng = random.Random(key_bytes)
    pair = Pair(key_bytes)
    for _ in range(300):
        roll = rng.random()
        if roll < 0.45:
            op = ("fill", [rng.randrange(POOL_SIZE)
                           for _ in range(rng.randrange(1, 12))])
        elif roll < 0.65:
            op = ("delete", rng.randrange(POOL_SIZE))
        elif roll < 0.85:
            op = ("lookups", [rng.randrange(POOL_SIZE) for _ in range(6)])
        elif roll < 0.90:
            op = ("planned", rng.randrange(POOL_SIZE),
                  rng.randrange(POOL_SIZE), rng.randrange(100))
        elif roll < 0.95:
            op = ("batch", [rng.randrange(POOL_SIZE)
                            for _ in range(rng.randrange(1, 24))])
        else:
            op = ("lookup_at", rng.randrange(POOL_SIZE))
        pair.run([op])
    stats = pair.live.stats
    assert stats.kicks > 0
    assert stats.insert_failures > 0
    assert stats.sig_collisions > 0
    assert stats.hits > 0 and stats.hits < stats.lookups
    assert pair.updates > 0
    assert pair.slot_reuses > 0
    assert pair.memo_hits > 0
    assert pair.planned_inserts > 0
    assert pair.batch_updates > 0
    assert pair.batch_failures > 0


@pytest.mark.parametrize("key_bytes", KEY_SIZES)
def test_every_entry_point_rejects_a_wrong_length_key(key_bytes):
    table = CuckooHashTable(CAPACITY, key_bytes=key_bytes, tracer=Tracer())
    good = key_pool(key_bytes)[0]
    table.insert(good, 1)
    table.lookup(good)   # memoises the traced lookup of a valid key
    for bad in (good[:-1], good + b"\x00"):
        for call in (table.probe, table.lookup, table.delete,
                     lambda key: table.insert(key, 2)):
            with pytest.raises(ValueError, match="key length"):
                call(bad)
    assert table.lookup(good) == 1


@pytest.mark.parametrize("key_bytes", KEY_SIZES)
def test_insert_many_checks_every_key_before_changing_anything(key_bytes):
    """Where a loop of ``insert`` would place the keys before a bad one,
    ``insert_many`` raises first and leaves the table as it was."""
    tracer = Tracer()
    table = CuckooHashTable(CAPACITY, key_bytes=key_bytes, tracer=tracer)
    keys = key_pool(key_bytes)
    table.insert(keys[0], 0)
    snapshot = (list(map(list, table._buckets)), list(table._kv),
                dataclasses.astuple(table.stats), table.lock.counter,
                table._mutations)
    for bad in (keys[2][:-1], keys[2] + b"\x00"):
        tracer.begin()
        with pytest.raises(ValueError, match="key length"):
            table.insert_many([(keys[1], 1), (keys[0], 2), (bad, 3)])
        assert not tracer.take().ops
        assert (list(map(list, table._buckets)), list(table._kv),
                dataclasses.astuple(table.stats), table.lock.counter,
                table._mutations) == snapshot


@pytest.mark.parametrize("key_bytes", KEY_SIZES)
def test_insert_many_across_hash_chunks(key_bytes, monkeypatch):
    """Batches longer than the hash chunk (7 keys here) match the
    reference's one-key inserts, through fills, updates and failures."""
    from repro.hashtable import cuckoo

    monkeypatch.setattr(cuckoo, "INSERT_CHUNK_KEYS", 7)
    rng = random.Random(key_bytes)
    pair = Pair(key_bytes)
    for _ in range(6):
        pair.insert_batch([rng.randrange(POOL_SIZE) for _ in range(60)])
        key = pair.keys[rng.randrange(POOL_SIZE)]
        pair.check(lambda table: table.delete(key))
    assert pair.batch_updates > 0
    assert pair.batch_failures > 0
    assert pair.live.stats.kicks > 0


@settings(max_examples=300, deadline=None)
@given(data=st.binary(min_size=1, max_size=64),
       seed=st.integers(0, 2 ** 64 - 1))
def test_hash_bytes_matches_reference(data, seed):
    assert hash_bytes(data, seed) == reference.hash_bytes(data, seed)


def test_hash_bytes_matches_reference_at_every_length():
    """Also ``hash_many`` over each length's keys, tail lane included,
    at fixed and random seeds."""
    rng = random.Random(64)
    for length in range(1, 65):
        keys = []
        for _ in range(20):
            data = rng.randbytes(length)
            seed = rng.getrandbits(64)
            assert hash_bytes(data, seed) == reference.hash_bytes(data, seed)
            keys.append(data)
        for seed in (0, 0x5EED, 2 ** 64 - 1, rng.getrandbits(64)):
            assert hash_many(keys, length, seed).tolist() == [
                reference.hash_bytes(key, seed) for key in keys]


def _table_pair(capacity, monkeypatch=None, limits=None):
    """A live and a reference table of ``capacity``; with ``limits``,
    both kick searches run under ``(MAX_BFS_NODES, MAX_KICK_DEPTH)``."""
    if limits is not None:
        from repro.hashtable import cuckoo

        for module in (cuckoo, reference):
            monkeypatch.setattr(module, "MAX_BFS_NODES", limits[0])
            monkeypatch.setattr(module, "MAX_KICK_DEPTH", limits[1])
    return (CuckooHashTable(capacity),
            reference.CuckooHashTable(capacity))


def _assert_same_tables(live, ref):
    assert live._buckets == ref._buckets
    assert live._kv == ref._kv
    assert live._next_slot == ref._next_slot
    assert (dataclasses.astuple(live.stats)
            == dataclasses.astuple(ref.stats))
    assert live.lock.counter == ref.lock.counter
    assert live._mutations == ref._mutations


@pytest.mark.parametrize("key_bytes", KEY_SIZES)
def test_untraced_batches_match_reference(key_bytes):
    """With the tracer off, a fixed run of ``insert_many`` batches between
    deletes, so freed slots are waiting, with keys already present in
    either bucket and repeated keys, matches the reference's loop of
    ``insert`` state for state, the mutation stamp included."""
    rng = random.Random(key_bytes + 1)
    pair = Pair(key_bytes, traced=False)
    in_secondary = freed_waiting = 0
    for _ in range(60):
        indices = [rng.randrange(POOL_SIZE)
                   for _ in range(rng.randrange(1, 16))]
        in_secondary += sum(pair.live.probe(pair.keys[index])
                            .found_in_secondary for index in indices)
        freed_waiting += bool(pair.live._freed_slots)
        pair.insert_batch(indices)
        for _ in range(rng.randrange(5)):
            key = pair.keys[rng.randrange(POOL_SIZE)]
            pair.check(lambda table: table.delete(key))
    assert pair.batch_updates > 0 and pair.batch_failures > 0
    assert in_secondary > 0 and freed_waiting > 0


def test_untraced_bulk_insert_retires_memoised_lookups():
    """A key placed by an untraced ``insert_many`` bumps the mutation
    stamp, so a traced lookup memoised as a miss before the batch finds
    the key after it."""
    tracer = Tracer()
    table = CuckooHashTable(CAPACITY, tracer=tracer)
    key = key_pool(16)[0]
    for expected in (None, None):
        tracer.begin()
        assert table.lookup(key) is expected
        tracer.take()
    assert table.insert_many([(key, 7)]) == [True]
    tracer.begin()
    assert table.lookup(key) == 7
    tracer.take()


@pytest.mark.parametrize("limits,kicks", [
    ((6, 2), True), ((2, 100), True), ((40, 1), True), ((1024, 0), False),
    ((1, 100), False)], ids=["nodes6-depth2", "nodes2-depth100",
                             "nodes40-depth1", "nodes1024-depth0",
                             "nodes1-depth100"])
def test_kick_search_limits_match_reference(limits, kicks, monkeypatch):
    """Under small BFS node and depth limits, near-full tables fail and
    kick exactly where the reference does: one key at a time through
    ``insert``, and in batches through ``insert_many``.  The live search
    checks a bucket for room when it queues it, so these limits are where
    it must still stop as the pop-order search does.  With two nodes, a
    path exists only for a key whose two buckets coincide."""
    rng = random.Random(limits[0] * 101 + limits[1])
    keys = [rng.randbytes(16) for _ in range(1200)]
    live, ref = _table_pair(512, monkeypatch, limits)
    for index, key in enumerate(keys[:600]):
        assert live.insert(key, index) == ref.insert(key, index)
    _assert_same_tables(live, ref)
    batch = [(key, index) for index, key in enumerate(keys[600:])]
    assert (live.insert_many(batch)
            == [ref.insert(key, value) for key, value in batch])
    _assert_same_tables(live, ref)
    assert live.stats.insert_failures > 0
    assert (live.stats.kicks > 0) == kicks


def test_large_table_fills_to_first_failure_like_reference():
    """A 4,096-bucket table filled one key at a time, at the default
    limits, reaches its first failed insert at the same key as the
    reference, with the same kicks, buckets and key-value array."""
    rng = random.Random(4096)
    live, ref = _table_pair(4096 * 8)
    assert live.num_buckets == 4096
    for index in range(live.capacity):
        key = rng.randbytes(16)
        ok = live.insert(key, index)
        assert ok == ref.insert(key, index)
        if not ok:
            break
    assert not ok
    assert live.load_factor > 0.9
    _assert_same_tables(live, ref)

"""Cuckoo hash table: functional behaviour and memory traces."""

import pytest

from repro.hashtable import CuckooHashTable, TableFull
from repro.sim import Tracer

from ..conftest import make_keys


def make_table(capacity=256, **kwargs):
    return CuckooHashTable(capacity, **kwargs)


def test_insert_and_lookup(keys16):
    table = make_table()
    for index, key in enumerate(keys16):
        assert table.insert(key, index)
    for index, key in enumerate(keys16):
        assert table.lookup(key) == index
    assert len(table) == len(keys16)


def test_lookup_missing_returns_none(keys16):
    table = make_table()
    table.insert(keys16[0], "present")
    assert table.lookup(keys16[1]) is None


def test_insert_updates_in_place(keys16):
    table = make_table()
    table.insert(keys16[0], "old")
    table.insert(keys16[0], "new")
    assert table.lookup(keys16[0]) == "new"
    assert len(table) == 1


def test_delete(keys16):
    table = make_table()
    for index, key in enumerate(keys16):
        table.insert(key, index)
    assert table.delete(keys16[3])
    assert table.lookup(keys16[3]) is None
    assert not table.delete(keys16[3])
    assert len(table) == len(keys16) - 1
    # Freed slot is reusable.
    assert table.insert(keys16[3], "back")
    assert table.lookup(keys16[3]) == "back"


def test_key_length_enforced():
    table = make_table(key_bytes=16)
    with pytest.raises(ValueError):
        table.insert(b"short", 1)
    with pytest.raises(ValueError):
        table.lookup(b"short")


def test_high_occupancy_via_displacement():
    """Cuckoo displacement reaches ~90%+ occupancy (paper: ~95%)."""
    table = make_table(capacity=1024)
    keys = make_keys(950, seed=11)
    inserted = sum(1 for i, k in enumerate(keys) if table.insert(k, i))
    assert inserted >= 900
    assert table.load_factor >= 0.85
    assert table.stats.kicks > 0   # displacement actually happened


def test_displacement_preserves_reachability():
    table = make_table(capacity=512)
    keys = make_keys(460, seed=12)
    for index, key in enumerate(keys):
        table.insert(key, index)
    for index, key in enumerate(keys):
        assert table.lookup(key) == index


def test_full_table_insert_fails_gracefully():
    table = make_table(capacity=16)
    keys = make_keys(64, seed=13)
    results = [table.insert(key, i) for i, key in enumerate(keys)]
    assert not all(results)
    assert table.stats.insert_failures >= 1
    # Everything that reported success is still readable.
    for index, (key, ok) in enumerate(zip(keys, results)):
        if ok:
            assert table.lookup(key) == index


def test_items_iterates_all(keys16):
    table = make_table()
    for index, key in enumerate(keys16):
        table.insert(key, index)
    seen = dict(table.items())
    assert seen == {key: index for index, key in enumerate(keys16)}


def test_occupancy_histogram_counts_buckets():
    table = make_table(capacity=128)
    histogram = table.bucket_occupancy_histogram()
    assert sum(histogram.values()) == table.num_buckets
    keys = make_keys(30, seed=14)
    for index, key in enumerate(keys):
        table.insert(key, index)
    histogram = table.bucket_occupancy_histogram()
    occupied = sum(count * entries
                   for entries, count in histogram.items())
    assert occupied == 30


def test_bucket_keys(keys16):
    table = make_table()
    table.insert(keys16[0], 1)
    plan = table.probe(keys16[0])
    bucket = (plan.secondary_index if plan.found_in_secondary
              else plan.primary_index)
    assert keys16[0] in table.bucket_keys(bucket)


def test_probe_plan_fields(keys16):
    table = make_table()
    table.insert(keys16[0], "v")
    plan = table.probe(keys16[0])
    assert plan.found
    assert plan.value == "v"
    assert plan.primary_addr % 64 == 0
    assert plan.secondary_addr % 64 == 0
    assert plan.sig_compares >= 1
    miss = table.probe(keys16[1])
    assert not miss.found
    assert miss.buckets_scanned >= 1


def test_lookup_trace_structure(keys16):
    tracer = Tracer()
    table = make_table(tracer=tracer)
    table.insert(keys16[0], 0)
    tracer.begin()
    table.lookup(keys16[0])
    trace = tracer.take()
    chains = trace.dependency_chains()
    # key read -> bucket reads -> kv read
    assert len(chains) == 3
    assert trace.mix.total >= 210   # paper Table 1


def test_lookup_trace_mix_matches_table1(keys16):
    tracer = Tracer()
    table = make_table(tracer=tracer)
    table.insert(keys16[0], 0)
    tracer.begin()
    table.lookup(keys16[0])
    mix = tracer.take().mix
    assert abs((mix.loads + mix.stores) / mix.total - 0.481) < 0.03
    assert abs(mix.arithmetic / mix.total - 0.21) < 0.03


def test_insert_trace_contains_stores(keys16):
    tracer = Tracer()
    table = make_table(tracer=tracer)
    tracer.begin()
    table.insert(keys16[0], 0)
    trace = tracer.take()
    stores = [op for op in trace.ops if op.is_store]
    assert len(stores) >= 2   # kv write + bucket write


def test_miss_lookup_trace_has_no_kv_read(keys16):
    tracer = Tracer()
    table = make_table(tracer=tracer)
    table.insert(keys16[0], 0)
    tracer.begin()
    table.lookup(keys16[1])
    trace = tracer.take()
    kv_base = table.layout.key_values.base
    kv_reads = [op for op in trace.ops
                if kv_base <= op.addr < table.layout.key_values.end]
    # A signature collision may rarely cause one, but normally none.
    assert len(kv_reads) <= 1


def test_layout_addresses_disjoint():
    table = make_table(capacity=128)
    layout = table.layout
    assert layout.metadata.end <= layout.buckets.base
    assert layout.buckets.end <= layout.key_values.base
    assert layout.table_addr == layout.metadata.base


def test_kv_array_exhaustion_guard():
    """The internal invariant: free slots exist whenever buckets have room."""
    table = make_table(capacity=8, assoc=8)
    keys = make_keys(8, seed=15)
    for index, key in enumerate(keys):
        table.insert(key, index)
    assert len(table) <= table.capacity


def test_stats_counters(keys16):
    table = make_table()
    table.insert(keys16[0], 0)
    table.lookup(keys16[0])
    table.lookup(keys16[1])
    table.delete(keys16[0])
    assert table.stats.inserts == 1
    assert table.stats.lookups == 2
    assert table.stats.hits == 1
    assert table.stats.deletes == 1

"""Edge cases and failure-injection across modules."""

import pytest

from repro.core import HaloSystem
from repro.sim import Cache, CacheParams, TINY_MACHINE
from repro.sim.hierarchy import MAX_LOCK_RETRIES

from ..conftest import make_keys


# -- cache: pathological lock pressure -----------------------------------------------
def test_fully_locked_set_still_evicts():
    cache = Cache("locked", CacheParams(2 * 64, 2, 64))
    lines = [i * cache.num_sets for i in range(3)]
    cache.fill(lines[0])
    cache.fill(lines[1])
    cache.lock(lines[0])
    cache.lock(lines[1])
    victim = cache.fill(lines[2])       # whole set locked: LRU goes anyway
    assert victim == lines[0]
    assert cache.contains(lines[2])


def test_store_retry_bounded_under_stuck_lock(hierarchy):
    """A never-released lock cannot livelock a writer."""
    addr = 0x900000
    hierarchy.warm_llc(addr, 64)
    hierarchy.lock_line(addr)
    result = hierarchy.core_access(0, addr, write=True)
    assert result.lock_retries <= MAX_LOCK_RETRIES
    hierarchy.unlock_line(addr)


# -- cuckoo: degenerate probes ----------------------------------------------------------
def test_cuckoo_minimum_size_table():
    from repro.hashtable import CuckooHashTable
    table = CuckooHashTable(1)
    keys = make_keys(8, seed=44)
    inserted = sum(1 for i, k in enumerate(keys) if table.insert(k, i))
    assert inserted >= 1
    for index, key in enumerate(keys[:inserted]):
        assert table.lookup(key) == index


def test_cuckoo_delete_then_reinsert_different_value():
    from repro.hashtable import CuckooHashTable
    table = CuckooHashTable(64)
    key = make_keys(1, seed=45)[0]
    table.insert(key, "first")
    table.delete(key)
    table.insert(key, "second")
    assert table.lookup(key) == "second"


def test_cuckoo_interleaved_churn():
    """Insert/delete churn never corrupts reachability."""
    from repro.hashtable import CuckooHashTable
    table = CuckooHashTable(256)
    keys = make_keys(200, seed=46)
    live = {}
    for round_index in range(3):
        for index, key in enumerate(keys):
            if (index + round_index) % 3 == 0:
                if table.insert(key, (round_index, index)):
                    live[key] = (round_index, index)
            elif key in live and (index + round_index) % 3 == 1:
                assert table.delete(key)
                del live[key]
        for key, value in live.items():
            assert table.lookup(key) == value


# -- HaloSystem on the tiny machine ------------------------------------------------------
def test_halo_system_on_tiny_machine():
    system = HaloSystem(TINY_MACHINE)
    assert len(system.accelerators) == 2
    table = system.create_table(128, name="tiny")
    keys = make_keys(80, seed=47)
    for index, key in enumerate(keys):
        table.insert(key, index)
    system.warm_table(table)
    blocking = system.run_blocking_lookups(table, keys[:20])
    assert [r.value for r in blocking.results] == list(range(20))
    software = system.run_software_lookups(table, keys[:20])
    assert software.results == list(range(20))


def test_tiny_machine_llc_pressure_evicts_table():
    """A table bigger than the tiny LLC spills; lookups still correct."""
    system = HaloSystem(TINY_MACHINE)
    table = system.create_table(2048, name="big_for_tiny")
    keys = make_keys(1500, seed=48)
    for index, key in enumerate(keys):
        table.insert(key, index)
    episode = system.run_blocking_lookups(table, keys[:40])
    assert all(result.found for result in episode.results)
    assert system.hierarchy.dram.stats.accesses > 0


# -- queries / results metadata ---------------------------------------------------------
def test_query_result_latency_accounting(system):
    table = system.create_table(64)
    key = make_keys(1, seed=49)[0]
    table.insert(key, 1)
    system.warm_table(table)
    episode = system.run_blocking_lookups(table, [key])
    result = episode.results[0]
    assert result.latency >= result.service_cycles > 0
    assert result.completed_at > result.started_at >= result.query.issued_at


# -- kvstore software batch path ----------------------------------------------------------
def test_kvstore_get_many_software_mode(system):
    from repro.nf import KeyValueStore
    kv = KeyValueStore(system, capacity=256)
    for index in range(20):
        kv.set(b"k%02d" % index, index)
    values, cycles = kv.get_many([b"k%02d" % index for index in range(20)])
    assert values == list(range(20))
    assert cycles > 0

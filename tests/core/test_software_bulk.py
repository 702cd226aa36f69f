"""Software bulk-prefetch lookups (DPDK rte_hash_lookup_bulk model)."""

import pytest

from repro.core import HaloSystem
from repro.hashtable.locking import READ_SIDE_CYCLES
from repro.traffic import random_keys


@pytest.fixture(scope="module")
def loaded():
    system = HaloSystem()
    table = system.create_table(1 << 14, name="bulk_test")
    keys = random_keys(10_000, seed=61)
    for index, key in enumerate(keys):
        table.insert(key, index)
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    return system, table, keys


def test_bulk_returns_correct_values(loaded):
    system, table, keys = loaded
    engine = system.software_engine()
    values, cycles = engine.lookup_bulk(table, keys[:100])
    assert values == list(range(100))
    assert cycles > 0


def test_bulk_handles_misses(loaded):
    system, table, keys = loaded
    engine = system.software_engine()
    bogus = random_keys(3, seed=999)
    values, _cycles = engine.lookup_bulk(table,
                                         [keys[0], bogus[0], keys[1]])
    assert values == [0, None, 1]


def test_bulk_faster_than_serial(loaded):
    """Prefetch batching overlaps same-stage misses across the batch."""
    system, table, keys = loaded
    sample = keys[:200]
    serial = system.run_software_lookups(table, sample)
    engine = system.software_engine()
    _values, bulk_cycles = engine.lookup_bulk(table, sample, batch=8)
    assert bulk_cycles / len(sample) < serial.cycles_per_op * 0.7


def test_bulk_batch_of_one_equals_serial_cost(loaded):
    system, table, keys = loaded
    engine_a = system.software_engine()
    engine_b = system.software_engine()
    system.hierarchy.flush_private(0)
    _v, bulk = engine_a.lookup_bulk(table, keys[:40], batch=1)
    system.hierarchy.flush_private(0)
    serial = 0.0
    for key in keys[:40]:
        _value, result = engine_b.lookup(table, key)
        serial += result.cycles
    # Identical cost model; only residual cache-state drift differs.
    assert bulk == pytest.approx(serial, rel=0.25)


def test_engine_charges_lock_overhead(loaded):
    """A lookup charges the read-side lock overhead, an insert the
    table's write overhead."""
    system, table, keys = loaded
    engine = system.software_engine()
    value, result = engine.lookup(table, keys[3])
    assert value == 3
    assert result.breakdown["locking"] == READ_SIDE_CYCLES
    fresh = HaloSystem()
    fresh_table = fresh.create_table(64)
    ok, result = fresh.software_engine().insert(fresh_table, keys[0], 0)
    assert ok
    assert fresh_table.lookup(keys[0]) == 0
    assert (result.breakdown["locking"]
            == fresh_table.lock.write_overhead_cycles())


def test_empty_batch(loaded):
    system, table, _keys = loaded
    engine = system.software_engine()
    values, cycles = engine.lookup_bulk(table, [])
    assert values == [] and cycles == 0.0

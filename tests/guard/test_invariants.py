"""Invariant checking semantics and the built-in seam catalog.

Each built-in invariant is tested both ways: quiet on a healthy model
object, loud when the seam is corrupted the way a real bug would corrupt
it (over-filled cache set, lost resource wakeup, unpaired lock bits,
impossible NoC hop totals).
"""

import pytest

from repro.core import HaloSystem
from repro.guard import (
    CHECK_EVERY,
    EngineGuard,
    Invariant,
    InvariantViolation,
    attach_standard_guard,
    cache_occupancy,
    interconnect_conservation,
    lock_bit_accounting,
    resource_conservation,
    standard_invariants,
)
from repro.sim.cache import Cache
from repro.sim.engine import Engine, Resource
from repro.sim.params import CacheParams

from ..conftest import make_keys


def tiny_cache():
    return Cache("test", CacheParams(size_bytes=4096, associativity=4,
                                     line_bytes=64))


# -- checking mechanics ------------------------------------------------------

def test_cadence_sampling():
    engine = Engine()

    def ticker():
        for _ in range(CHECK_EVERY * 3):
            yield engine.timeout(1)

    probe = Invariant("probe", lambda: None)
    guard = EngineGuard(invariants=[probe])
    engine.attach_guard(guard)
    engine.run_process(ticker())
    # One sweep per CHECK_EVERY events plus the drain sweep: sampled,
    # not per-event.
    assert guard.invariant_checks \
        == engine.events_processed // CHECK_EVERY + 1


def test_strict_mode_raises_at_first_violation():
    engine = Engine()

    def ticker():
        for _ in range(CHECK_EVERY * 2):
            yield engine.timeout(1)

    bad = Invariant("always.bad", lambda: "seam corrupted")
    engine.attach_guard(EngineGuard(invariants=[bad]))
    with pytest.raises(InvariantViolation) as excinfo:
        engine.run_process(ticker())
    assert excinfo.value.name == "always.bad"
    assert "seam corrupted" in str(excinfo.value)
    # Raised at the first sample, not at the drain.
    assert excinfo.value.events_processed == CHECK_EVERY


def test_drain_runs_final_sweep():
    """A violation introduced after the last cadence sample still
    surfaces: check_now runs once more when the calendar empties."""
    engine = Engine()
    state = {"bad": False}

    def worker():
        yield engine.timeout(1)
        state["bad"] = True  # corrupt *after* the last sampled check

    probe = Invariant("late", lambda: "late break" if state["bad"] else None)
    engine.attach_guard(EngineGuard(invariants=[probe]))
    with pytest.raises(InvariantViolation, match="late break"):
        engine.run_process(worker())


# -- built-in seam invariants ------------------------------------------------

def test_cache_occupancy_quiet_then_loud():
    cache = tiny_cache()
    for line in range(64):
        cache.fill(line)
    invariant = cache_occupancy(cache)
    assert invariant.predicate() is None
    # Corrupt a set past its associativity, as a broken fill path would.
    victim_set = cache._sets[0]
    for extra in range(1000, 1000 + cache.assoc + 1):
        victim_set[extra * cache.num_sets] = 0  # a clean, unlocked line
    detail = invariant.predicate()
    assert detail is not None and "ways" in detail


def test_resource_conservation_quiet_then_loud():
    engine = Engine()
    resource = Resource(engine, capacity=2)
    invariant = resource_conservation(resource, "mshr")
    resource.acquire()
    assert invariant.predicate() is None
    # A lost wakeup: a live waiter queued while a slot sits free.
    resource.acquire()
    resource.acquire()          # queued (capacity exhausted)
    resource.in_use = 1         # corrupt: slot freed without a handoff
    detail = invariant.predicate()
    assert detail is not None and "starvation" in detail


def test_resource_conservation_catches_impossible_in_use():
    engine = Engine()
    resource = Resource(engine, capacity=2)
    invariant = resource_conservation(resource, "mshr")
    resource.in_use = 3
    assert "outside" in invariant.predicate()


def test_lock_bit_accounting_on_live_system():
    system = HaloSystem()
    invariant = lock_bit_accounting(system.lock_manager)
    assert invariant.predicate() is None
    # Corrupt: an unlock that never had a matching lock.
    system.lock_manager.stats.unlock_operations += 1
    assert "unlock without matching lock" in invariant.predicate()


def test_interconnect_conservation_on_live_system():
    system = HaloSystem()
    interconnect = system.hierarchy.interconnect
    invariant = interconnect_conservation(interconnect)
    assert invariant.predicate() is None
    interconnect.stats.messages = 1
    interconnect.stats.total_hops = interconnect.stops + 1
    assert "worst case" in invariant.predicate()


# -- the standard catalog over a real system ---------------------------------

def test_standard_invariants_cover_every_seam():
    system = HaloSystem()
    names = {invariant.name for invariant in standard_invariants(system)}
    hierarchy = system.hierarchy
    expected_caches = len(hierarchy.l1) + len(hierarchy.l2) \
        + len(hierarchy.llc)
    assert sum(1 for n in names if n.startswith("cache.")) \
        == expected_caches
    assert sum(1 for n in names if n.startswith("resource.scoreboard.")) \
        == len(system.accelerators)
    assert "locks.pairing" in names
    assert "interconnect.conservation" in names


def test_standard_guard_clean_on_real_workload():
    system = HaloSystem()
    guard = attach_standard_guard(system)
    table = system.create_table(1024, name="guarded")
    inserted = []
    for index, key in enumerate(make_keys(300, seed=17)):
        if table.insert(key, index):
            inserted.append(key)
    system.warm_table(table)
    backend = system.backend("halo-b")
    system.engine.run_process(backend.lookup_stream(table, inserted[:60]))
    stats = guard.as_dict()
    assert stats["invariants"] == len(standard_invariants(system))
    assert stats["invariant_checks"] > 0
    assert stats["events_observed"] == system.engine.events_processed
    # The guard publishes through the system's metrics registry.
    snapshot = system.obs.metrics.snapshot()
    assert snapshot["guard.invariant_checks"] == stats["invariant_checks"]

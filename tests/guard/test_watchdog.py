"""Watchdog semantics: deadlock dumps, livelock, attachment.

The acceptance fixture for the whole safety net lives here: a synthetic
two-``Resource`` deadlock (each process holds one and requests the
other) must raise :class:`DeadlockError` naming *both* blocked processes
and the waitables they are stuck on.
"""

import pytest

from repro.guard import (
    STALL_EVENTS,
    DeadlockError,
    EngineGuard,
    StallError,
)
from repro.sim.engine import Engine, Resource, SimulationError


def two_resource_deadlock(engine):
    """The classic ABBA inversion: returns the two process handles."""
    lock_a = Resource(engine, capacity=1)
    lock_b = Resource(engine, capacity=1)

    def worker(first, second):
        yield first.acquire()
        yield engine.timeout(1)
        yield second.acquire()

    forward = engine.process(worker(lock_a, lock_b), name="forward")
    reverse = engine.process(worker(lock_b, lock_a), name="reverse")
    return forward, reverse


def test_two_resource_deadlock_names_both_processes():
    engine = Engine()
    two_resource_deadlock(engine)
    engine.attach_guard(EngineGuard())
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    error = excinfo.value
    assert {entry.name for entry in error.blocked} == {"forward", "reverse"}
    message = str(error)
    assert "forward" in message and "reverse" in message
    # The dump says *what* each process waits on, not just that it waits.
    assert all("Resource(capacity=1, in_use=1)" in entry.waiting_on
               for entry in error.blocked)
    assert all("queue position 1/1" in entry.waiting_on
               for entry in error.blocked)


def test_deadlock_error_carries_structured_context():
    engine = Engine()
    two_resource_deadlock(engine)
    engine.attach_guard(EngineGuard())
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    assert excinfo.value.now == engine.now
    assert excinfo.value.events_processed == engine.events_processed


def test_unguarded_engine_drains_silently_on_deadlock():
    """The contrast case the watchdog exists for: without a guard the
    calendar just empties and run() returns as if nothing was wrong."""
    engine = Engine()
    forward, reverse = two_resource_deadlock(engine)
    engine.run()
    assert not forward.done and not reverse.done
    assert len(engine.blocked_processes()) == 2


def test_until_bound_never_false_positives():
    """Deadlock detection keys off a *true* drain; returning at the
    ``until`` bound with blocked processes is not a deadlock."""
    engine = Engine()
    two_resource_deadlock(engine)

    def ticker():
        while True:
            yield engine.timeout(10)

    engine.process(ticker(), name="ticker")
    engine.attach_guard(EngineGuard())
    engine.run(until=200)  # must not raise
    assert engine.now == 200


def test_clean_completion_raises_nothing():
    engine = Engine()

    def worker():
        yield engine.timeout(5)
        return "done"

    engine.attach_guard(EngineGuard())
    assert engine.run_process(worker()) == "done"


def test_stall_detection_catches_zero_time_livelock():
    engine = Engine()

    def spinner():
        while True:
            yield None  # reschedules at the same cycle forever

    engine.process(spinner(), name="spinner")
    engine.attach_guard(EngineGuard())
    with pytest.raises(StallError) as excinfo:
        engine.run()
    assert excinfo.value.stalled_events == STALL_EVENTS
    assert engine.now == excinfo.value.now


def test_one_guard_per_engine():
    engine = Engine()
    engine.attach_guard(EngineGuard())
    with pytest.raises(SimulationError, match="already attached"):
        engine.attach_guard(EngineGuard())


def test_guard_observes_every_event():
    engine = Engine()

    def worker():
        for _ in range(10):
            yield engine.timeout(1)

    guard = EngineGuard()
    engine.attach_guard(guard)
    engine.run_process(worker())
    assert guard.events_observed == engine.events_processed

"""Discrete-event engine semantics."""

import pytest

from repro.sim import Engine, SimulationError, Store


def test_timeout_advances_clock(engine):
    def program():
        yield engine.timeout(10)
        return "done"

    assert engine.run_process(program()) == "done"
    assert engine.now == 10


def test_zero_timeout_same_cycle(engine):
    def program():
        yield engine.timeout(0)
        return engine.now

    assert engine.run_process(program()) == 0


def test_negative_timeout_rejected(engine):
    with pytest.raises(SimulationError):
        engine.timeout(-1)


def test_same_cycle_fifo_ordering(engine):
    order = []

    def worker(tag):
        yield engine.timeout(5)
        order.append(tag)

    for tag in range(4):
        engine.process(worker(tag))
    engine.run()
    assert order == [0, 1, 2, 3]


def test_process_return_value_propagates(engine):
    def child():
        yield engine.timeout(3)
        return 99

    def parent():
        value = yield engine.process(child())
        return value + 1

    assert engine.run_process(parent()) == 100
    assert engine.now == 3


def test_waiting_on_completed_process(engine):
    def child():
        yield engine.timeout(1)
        return "x"

    def parent():
        process = engine.process(child())
        yield engine.timeout(10)   # child long done
        value = yield process
        return value

    assert engine.run_process(parent()) == "x"
    assert engine.now == 10


def test_event_succeed_wakes_all_waiters(engine):
    gate = engine.event()
    woken = []

    def waiter(tag):
        value = yield gate
        woken.append((tag, value))

    def trigger():
        yield engine.timeout(7)
        gate.succeed("go")

    for tag in range(3):
        engine.process(waiter(tag))
    engine.process(trigger())
    engine.run()
    assert woken == [(0, "go"), (1, "go"), (2, "go")]
    assert engine.now == 7


def test_event_double_succeed_raises(engine):
    gate = engine.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_resource_limits_concurrency(engine):
    resource = engine.resource(2)
    active = []
    peak = []

    def worker():
        yield resource.acquire()
        active.append(1)
        peak.append(len(active))
        yield engine.timeout(10)
        active.pop()
        resource.release()

    for _ in range(5):
        engine.process(worker())
    engine.run()
    assert max(peak) == 2
    assert engine.now == 30   # 5 jobs, 2 wide, 10 cycles each


def test_resource_fifo_handoff(engine):
    resource = engine.resource(1)
    order = []

    def worker(tag, hold):
        yield resource.acquire()
        order.append(tag)
        yield engine.timeout(hold)
        resource.release()

    for tag in range(3):
        engine.process(worker(tag, 5))
    engine.run()
    assert order == [0, 1, 2]


def test_resource_release_without_acquire(engine):
    resource = engine.resource(1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_capacity_validation(engine):
    with pytest.raises(SimulationError):
        engine.resource(0)


def test_resource_over_release_after_balanced_use(engine):
    """Regression: the guard fires even after legitimate acquire/release
    cycles, not only on a never-acquired resource."""
    resource = engine.resource(2)

    def worker():
        yield resource.acquire()
        yield engine.timeout(1)
        resource.release()

    for _ in range(3):
        engine.process(worker())
    engine.run()
    assert resource.in_use == 0
    with pytest.raises(SimulationError, match="release without"):
        resource.release()


def test_resource_over_release_after_queued_handoff(engine):
    """Regression: a release that hands its slot straight to a queued
    waiter leaves ``in_use`` untouched — the over-release guard must
    still hold once every legitimate holder has released."""
    resource = engine.resource(1)
    releases = []

    def worker(tag):
        yield resource.acquire()
        yield engine.timeout(5)
        resource.release()
        releases.append(tag)

    for tag in range(3):
        engine.process(worker(tag))
    engine.run()
    assert releases == [0, 1, 2]
    with pytest.raises(SimulationError, match="release without"):
        resource.release()


def test_fault_hook_bus(engine):
    """One hook per seam; absent seams resolve to None cheaply."""
    assert engine.fault_hook("any.site") is None
    marker = object()
    engine.add_fault_hook("seam", lambda: marker)
    assert engine.fault_hook("seam")() is marker
    with pytest.raises(SimulationError, match="already installed"):
        engine.add_fault_hook("seam", lambda: None)
    engine.remove_fault_hook("seam")
    assert engine.fault_hook("seam") is None
    engine.remove_fault_hook("seam")   # idempotent


def test_store_fifo(engine):
    store = Store(engine)
    received = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    def producer():
        yield engine.timeout(1)
        for item in "abc":
            store.put(item)

    engine.process(consumer())
    engine.process(producer())
    engine.run()
    assert received == ["a", "b", "c"]


def test_store_buffers_when_no_getter(engine):
    store = Store(engine)
    store.put(1)
    store.put(2)
    assert len(store) == 2

    def consumer():
        first = yield store.get()
        second = yield store.get()
        return (first, second)

    assert engine.run_process(consumer()) == (1, 2)


def test_deadlock_detection(engine):
    def stuck():
        yield engine.event()   # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        engine.run_process(stuck())


def test_run_until_bound(engine):
    def ticker():
        while True:
            yield engine.timeout(10)

    engine.process(ticker())
    engine.run(until=35)
    assert engine.now == 35


def test_determinism_across_runs():
    def build_and_run():
        engine = Engine()
        log = []

        def worker(tag, delay):
            yield engine.timeout(delay)
            log.append((engine.now, tag))

        for tag, delay in enumerate([5, 3, 5, 1]):
            engine.process(worker(tag, delay))
        engine.run()
        return log

    assert build_and_run() == build_and_run()


def test_bad_yield_value_raises(engine):
    def program():
        yield 42

    engine.process(program())
    with pytest.raises(SimulationError, match="unsupported"):
        engine.run()

"""Windowed trace replay: mode resolution, fallback accounting, and the
serial-equivalence contract of the one replay loop.

Three layers:

* **decide()** — the per-stream mode resolution: a stream replays
  serially only when asked to or for a recorded reason
  (``replay.fallback.faults`` / ``guard``); concurrency narrows the
  windows, it is not a fallback.
* **execute_window()** — the budgeted pricing primitive: always at
  least one trace, the budget-crossing trace included (that is exactly
  where serial replay would first yield to a foreign event).
* **end-to-end** — collocated streamed software cores produce identical
  clocks, cycles, and outcomes whether they replay windowed, serially as
  asked, or serially in the guard's fallback.
"""

from __future__ import annotations

import pytest

from repro.core import HaloSystem
from repro.exec.cores import CoreWorkload
from repro.obs.metrics import MetricsRegistry
from repro.sim import (CoreModel, InstructionMix, MemOp, MemoryHierarchy,
                       MemTrace, SKYLAKE_SP_16C)
from repro.sim.engine import Engine
from repro.sim.replay import (
    METRIC_BATCHES, METRIC_FALLBACK_FAULTS, METRIC_FALLBACK_GUARD,
    METRIC_WINDOWS, REPLAY_SERIAL, REPLAY_WINDOWED, TraceReplay)

from ..conftest import make_keys

# ---------------------------------------------------------------------------
# decide(): mode resolution and fallback counters


class _Guard:
    def before_event(self, engine):
        pass

    def on_drain(self, engine):
        pass


def _replay(engine, **kwargs):
    return TraceReplay(None, engine, **kwargs)


def test_decide_off_when_not_batched():
    """Serial replay asked for is a choice, not a counted fallback."""
    registry = MetricsRegistry()
    replay = _replay(Engine(), serial=True, metrics=registry)
    assert replay.decide() == REPLAY_SERIAL
    assert replay.fallbacks == 0
    assert registry.snapshot() == {}


def test_decide_batch_when_engine_is_quiet():
    """A quiet engine replays windowed; with nothing pending its one
    window is unbounded (see ``test_single_core_stream_batches_whole``)."""
    replay = _replay(Engine())
    assert replay.decide() == REPLAY_WINDOWED
    assert replay.fallbacks == 0


def test_faults_force_serial_and_count():
    registry = MetricsRegistry()
    engine = Engine()
    engine.add_fault_hook("seam", lambda *args: None)
    replay = _replay(engine, metrics=registry)
    assert replay.decide() == REPLAY_SERIAL
    assert replay.fallbacks == 1
    assert registry.counter(METRIC_FALLBACK_FAULTS).value == 1


def test_guard_forces_serial_and_counts():
    registry = MetricsRegistry()
    engine = Engine()
    engine.attach_guard(_Guard())
    replay = _replay(engine, metrics=registry)
    assert replay.decide() == REPLAY_SERIAL
    assert replay.fallbacks == 1
    assert registry.counter(METRIC_FALLBACK_GUARD).value == 1


def _busy_engine():
    engine = Engine()

    def parked():
        yield engine.timeout(100)

    engine.process(parked(), name="peer0")
    engine.process(parked(), name="peer1")
    return engine


def test_concurrency_goes_windowed_not_serial():
    registry = MetricsRegistry()
    replay = _replay(_busy_engine(), metrics=registry)
    assert replay.decide() == REPLAY_WINDOWED
    assert replay.fallbacks == 0
    assert registry.snapshot() == {}


def test_concurrency_with_windowed_off_counts_fallback():
    """Concurrency does not hide a fallback: a guard on a busy engine
    turns windowing off and is counted."""
    registry = MetricsRegistry()
    engine = _busy_engine()
    engine.attach_guard(_Guard())
    replay = _replay(engine, metrics=registry)
    assert replay.decide() == REPLAY_SERIAL
    assert replay.fallbacks == 1
    assert registry.counter(METRIC_FALLBACK_GUARD).value == 1


def test_every_serial_decision_is_counted():
    """The no-silent-degradation invariant: a replay that goes serial on
    its own has always incremented exactly one fallback counter."""
    registry = MetricsRegistry()
    engine = _busy_engine()
    engine.add_fault_hook("seam", lambda *args: None)
    engine.attach_guard(_Guard())
    replay = _replay(engine, metrics=registry)
    for expected in (1, 2, 3):
        assert replay.decide() == REPLAY_SERIAL
        assert replay.fallbacks == expected
    total = sum(registry.counter(name).value
                for name in (METRIC_FALLBACK_FAULTS, METRIC_FALLBACK_GUARD))
    assert total == replay.fallbacks


# ---------------------------------------------------------------------------
# execute_window(): the budgeted pricing primitive


def _uniform_traces(count):
    mix = InstructionMix(loads=1, arithmetic=20)
    return [MemTrace([MemOp(0x40000 + i * 4096, dep=0)], mix)
            for i in range(count)]


def test_window_prices_at_least_one_trace():
    core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    results, total, index = core.execute_window(_uniform_traces(4), 0, 0.0)
    assert len(results) == 1 and index == 1
    assert total == results[0].cycles


def test_window_includes_the_crossing_trace():
    core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    traces = _uniform_traces(6)
    probe = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    per_trace = probe.execute(traces[0]).cycles
    # Budget ends strictly inside the third trace: windows stop *after*
    # the cumulative total crosses, so three traces are priced.
    results, total, index = core.execute_window(
        traces, 0, 2.5 * per_trace)
    assert index == 3
    assert total >= 2.5 * per_trace


def test_window_without_budget_prices_everything():
    core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    traces = _uniform_traces(5)
    results, total, index = core.execute_window(traces, 1, None)
    assert index == 5 and len(results) == 4


def test_windowed_chain_covers_all_traces():
    """Consecutive windows resume where the previous one stopped, cover
    the stream exactly once, and price it as one unbounded window does."""
    core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    traces = _uniform_traces(10)
    index = 0
    chained = []
    while index < len(traces):
        results, _total, index = core.execute_window(traces, index, 1.0)
        chained.extend(results)
    whole = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C)).execute_batch(
        traces)
    assert [r.cycles for r in chained] == [r.cycles for r in whole]


# ---------------------------------------------------------------------------
# end-to-end: collocated streamed cores


def _run_multicore(serial_replay=False, cores=3, per_core=40, guard=False):
    system = HaloSystem()
    if guard:
        system.engine.attach_guard(_Guard())
    table = system.create_table(1 << 8, name="windowed_equiv")
    keys = make_keys(64, seed=21)
    for index, key in enumerate(keys):
        table.insert(key, index)
    system.warm_table(table)
    workloads = [
        CoreWorkload(backend="software", core_id=core, table=table,
                     keys=[keys[(core * 31 + i) % len(keys)]
                           for i in range(per_core)],
                     stream=True,
                     backend_kwargs={"serial_replay": serial_replay},
                     name=f"win{core}")
        for core in range(cores)
    ]
    results = system.run_cores(workloads)
    return system, results


def _outcome_view(run):
    return [(r.core_id, r.finished,
             [(o.found, o.cycles) for o in r.result]) for r in run.results]


@pytest.mark.parametrize("windowed", [True, False])
def test_windowed_stream_equals_serial(windowed):
    """Concurrent streams — windowed, or in the guard's serial fallback —
    give exactly the per-key clocks, cycles, outcomes and metrics of
    serial replay asked for outright; only the replay counters differ."""
    serial_system, serial_results = _run_multicore(serial_replay=True)
    fast_system, fast_results = _run_multicore(guard=not windowed)
    assert fast_system.engine.now == serial_system.engine.now
    assert _outcome_view(fast_results) == _outcome_view(serial_results)
    fast = fast_system.obs.metrics.snapshot()
    if windowed:
        assert fast.pop(METRIC_WINDOWS) > 0
        fast.pop(METRIC_BATCHES, None)
    else:
        assert fast.pop(METRIC_FALLBACK_GUARD) == 3
    assert fast == serial_system.obs.metrics.snapshot()


def test_windowed_stream_counts_windows_without_fallbacks():
    system, _results = _run_multicore()
    metrics = system.obs.metrics
    assert metrics.counter(METRIC_WINDOWS).value > 0
    for name in (METRIC_FALLBACK_FAULTS, METRIC_FALLBACK_GUARD):
        assert metrics.counter(name).value == 0


def test_windowed_off_concurrent_streams_count_fallbacks():
    """A guard turns windowing off for every collocated stream, and each
    stream counts its fallback."""
    system, _results = _run_multicore(guard=True, cores=3)
    metrics = system.obs.metrics
    assert metrics.counter(METRIC_FALLBACK_GUARD).value == 3
    assert metrics.counter(METRIC_WINDOWS).value == 0
    assert metrics.counter(METRIC_BATCHES).value == 0


def test_single_core_stream_batches_whole():
    system, _results = _run_multicore(cores=1)
    metrics = system.obs.metrics
    assert metrics.counter(METRIC_BATCHES).value == 1
    assert metrics.counter(METRIC_WINDOWS).value == 0

"""Windowed trace replay: the one stepping rule, fallback accounting,
and the serial-equivalence contract of the one replay loop.

Three layers:

* **the stepping rule** — every path that may run ahead of the engine
  (a software stream, a software switch packet, a ``LOOKUP_B``, a
  ``lookup_batch`` chunk) asks :func:`repro.sim.replay.observer` and the
  engine's horizon, and nothing else: one grid of engine states × paths
  pins which take one engine step and the one counter each bumps.
* **execute_window()** — the budgeted pricing primitive: always at
  least one trace, the budget-crossing trace included (that is exactly
  where a per-trace hop would first yield to a foreign event).
* **end-to-end** — collocated streamed software cores produce identical
  clocks, cycles, and outcomes whether they replay windowed, one trace
  per window under a capped horizon, or one trace per window under the
  guard's fallback.
"""

from __future__ import annotations

import pytest

from repro.core import HaloSystem
from repro.core.isa import METRIC_FALLBACK_BUSY as HALO_BUSY
from repro.exec.cores import CoreWorkload
from repro.sim import (CoreModel, InstructionMix, MemOp, MemoryHierarchy,
                       MemTrace, SKYLAKE_SP_16C)
from repro.sim.engine import Engine
from repro.sim.replay import (
    METRIC_BATCHES, METRIC_FALLBACK_FAULTS, METRIC_FALLBACK_GUARD,
    METRIC_WINDOWS)
from repro.traffic import TrafficProfile
from repro.vswitch import SwitchMode, VirtualSwitch
from repro.vswitch.switch import METRIC_FALLBACK_BUSY as SWITCH_BUSY

from ..conftest import make_keys

# ---------------------------------------------------------------------------
# the stepping rule: engine state x path -> one engine step?, counter


class _Guard:
    def before_event(self, engine):
        pass

    def on_drain(self, engine):
        pass


#: How far ahead the busy state parks a timeout: far past any path's
#: end, so the engine is busy but a replay window reaches the stream's end.
HELD_FOR = 10 ** 9

#: Cycles :func:`_run` drives the engine for: more than any path takes.
RUN_FOR = 10 ** 6

#: Engine events of a path that is one engine step: its process start,
#: its one timeout and the wake.
ONE_STEP_EVENTS = 3

#: Every counter a run-ahead decision can bump.
STEPPING_COUNTERS = (METRIC_BATCHES, METRIC_WINDOWS, SWITCH_BUSY, HALO_BUSY,
                     METRIC_FALLBACK_FAULTS, METRIC_FALLBACK_GUARD)


def _idle(engine):
    pass


def _busy(engine):
    engine.timeout(HELD_FOR)


def _fault_hook(engine):
    engine.add_fault_hook("stepping.dummy", lambda *args: None)


def _guard(engine):
    engine.attach_guard(_Guard())


STATES = {"idle": _idle, "busy": _busy, "fault-hook": _fault_hook,
          "guard": _guard}


def _lookup_system():
    system = HaloSystem()
    table = system.create_table(1 << 8, name="stepping")
    keys = make_keys(16, seed=5)
    for index, key in enumerate(keys):
        table.insert(key, index)
    system.warm_table(table)
    return system, table, keys


def _software_stream():
    system, table, keys = _lookup_system()
    return system, system.backend("software").lookup_stream(table, keys)


def _switch_packet():
    profile = TrafficProfile(name="stepping", description="", num_flows=200,
                             num_rules=6, zipf_s=0.8)
    flow_set, rules = profile.build()
    system = HaloSystem()
    switch = VirtualSwitch(system, SwitchMode.SOFTWARE,
                           megaflow_tuple_capacity=1 << 14)
    switch.install_rules(rules)
    switch.prewarm_megaflows(flow_set.flows)
    switch.warm()
    return system, switch.packet_program(flow_set[0])


def _lookup_b():
    system, table, keys = _lookup_system()
    return system, system.isa.lookup_b(0, table, keys[0])


def _batch_chunk():
    system, table, keys = _lookup_system()
    return system, system.isa.lookup_batch(0, table, keys[:8])


PATHS = {"software-stream": _software_stream,
         "switch-packet": _switch_packet, "lookup-b": _lookup_b,
         "batch-chunk": _batch_chunk}

#: (state, path) -> (one engine step?, the one counter bumped or None):
#: PERFORMANCE.md's §1.3, §1.10 and §1.11 tables.  A busy engine cuts a
#: replay at its horizon, which the parked timeout puts past the stream.
EXPECTED = {
    ("idle", "software-stream"): (True, METRIC_BATCHES),
    ("idle", "switch-packet"): (True, None),
    ("idle", "lookup-b"): (True, None),
    ("idle", "batch-chunk"): (True, None),
    ("busy", "software-stream"): (True, METRIC_WINDOWS),
    ("busy", "switch-packet"): (False, SWITCH_BUSY),
    ("busy", "lookup-b"): (False, HALO_BUSY),
    ("busy", "batch-chunk"): (False, HALO_BUSY),
    ("fault-hook", "software-stream"): (False, METRIC_FALLBACK_FAULTS),
    ("fault-hook", "switch-packet"): (False, METRIC_FALLBACK_FAULTS),
    ("fault-hook", "lookup-b"): (False, METRIC_FALLBACK_FAULTS),
    ("fault-hook", "batch-chunk"): (False, METRIC_FALLBACK_FAULTS),
    ("guard", "software-stream"): (False, METRIC_FALLBACK_GUARD),
    ("guard", "switch-packet"): (False, METRIC_FALLBACK_GUARD),
    ("guard", "lookup-b"): (False, METRIC_FALLBACK_GUARD),
    ("guard", "batch-chunk"): (False, METRIC_FALLBACK_GUARD),
}


def _counts(system):
    snapshot = system.obs.metrics.snapshot()
    return {name: snapshot.get(name, 0) for name in STEPPING_COUNTERS}


def _run(system, program):
    """Drive ``program`` to its end; returns the engine events it took."""
    engine = system.engine
    before = engine.events_processed
    process = engine.process(program)
    engine.run(until=engine.now + RUN_FOR)
    assert process.done
    return engine.events_processed - before


@pytest.mark.parametrize("state, path", list(EXPECTED),
                         ids=[f"{state}-{path}" for state, path in EXPECTED])
def test_stepping_rule(state, path):
    """Each path takes one engine step exactly when its grid cell says,
    and bumps exactly the cell's counter, once."""
    one_step, counter = EXPECTED[state, path]
    system, program = PATHS[path]()
    STATES[state](system.engine)
    before = _counts(system)
    events = _run(system, program)
    after = _counts(system)
    bumped = {name: after[name] - before[name] for name in STEPPING_COUNTERS
              if after[name] != before[name]}
    assert bumped == ({} if counter is None else {counter: 1})
    assert (events == ONE_STEP_EVENTS) == one_step, events
    assert events >= ONE_STEP_EVENTS


def test_concurrency_with_windowed_off_counts_fallback():
    """Concurrency does not hide a fallback: a guard on a busy engine
    turns windowing off and is counted once, with no window."""
    system, table, keys = _lookup_system()
    engine = system.engine
    _busy(engine)
    _guard(engine)
    events = _run(system,
                  system.backend("software").lookup_stream(table, keys))
    assert events == 1 + 2 * len(keys)
    counts = _counts(system)
    assert counts[METRIC_FALLBACK_GUARD] == 1
    assert counts[METRIC_FALLBACK_FAULTS] == 0
    assert counts[METRIC_WINDOWS] == counts[METRIC_BATCHES] == 0


def test_every_serial_decision_is_counted():
    """The no-silent-degradation invariant: a stream that replays in
    zero-budget windows has always incremented exactly one fallback
    counter, once per stream and not per trace, and no window."""
    system, table, keys = _lookup_system()
    engine = system.engine
    _busy(engine)
    _fault_hook(engine)
    _guard(engine)
    backend = system.backend("software")
    for expected in (1, 2, 3):
        events = _run(system, backend.lookup_stream(table, keys))
        # The start, then one timeout and its wake per trace: every
        # window priced exactly one.
        assert events == 1 + 2 * len(keys)
        counts = _counts(system)
        assert counts[METRIC_FALLBACK_FAULTS] == expected
        assert counts[METRIC_FALLBACK_GUARD] == 0
        assert counts[METRIC_WINDOWS] == counts[METRIC_BATCHES] == 0


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


def _run_multicore(cores=3, per_core=40, guard=False):
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
                     name=f"win{core}")
        for core in range(cores)
    ]
    results = system.run_cores(workloads)
    return system, results


def _outcome_view(run):
    return [(r.core_id, r.finished,
             [(o.found, o.cycles) for o in r.result]) for r in run.results]


@pytest.mark.parametrize("windowed", [True, False])
def test_windowed_stream_equals_serial(windowed, monkeypatch):
    """Concurrent streams — windowed, or in the guard's one-trace windows
    — give exactly the per-key clocks, cycles, outcomes and metrics of
    one-trace windows under a horizon capped at now; only the replay
    counters differ."""
    with monkeypatch.context() as patch:
        patch.setattr(Engine, "next_event_time", lambda engine: engine.now)
        serial_system, serial_results = _run_multicore()
    fast_system, fast_results = _run_multicore(guard=not windowed)
    assert fast_system.engine.now == serial_system.engine.now
    assert _outcome_view(fast_results) == _outcome_view(serial_results)
    serial = serial_system.obs.metrics.snapshot()
    # Every capped window is horizon-bounded: one per lookup.
    assert serial.pop(METRIC_WINDOWS) == 3 * 40
    fast = fast_system.obs.metrics.snapshot()
    if windowed:
        assert fast.pop(METRIC_WINDOWS) > 0
        fast.pop(METRIC_BATCHES, None)
    else:
        assert fast.pop(METRIC_FALLBACK_GUARD) == 3
    assert fast == serial


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

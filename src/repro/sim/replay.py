"""Windowed trace replay: one replay loop for streams of traced operations.

Public contract
===============

The conventional way to charge a stream of traced operations is one DES hop
per operation — price the trace on the :class:`~repro.sim.core.CoreModel`,
``yield engine.timeout(cycles)``, repeat.  Each hop costs a generator resume
plus a calendar round-trip, which dominates wall time for replay-heavy
workloads.  :class:`TraceReplay` keeps the per-operation contract — cycle
outcomes are the per-hop path's, bit for bit (the parity suite pins this) —
but spends the cost in *windows*:

1. ask the engine for the next pending event time
   (:meth:`~repro.sim.engine.Engine.next_event_time`);
2. price traces up to that horizon
   (:meth:`~repro.sim.core.CoreModel.execute_window` — the trace that
   crosses it included, exactly where the per-hop path would first yield
   to the foreign event);
3. spend the window as one timeout, and repeat.

No foreign process can run strictly inside a window, and at the horizon
the engine's FIFO tie-break picks the same winner it would under per-trace
hops, so the interleaving — which process touches the shared hierarchy
when — is identical to the per-hop path.  When nothing else is pending the
horizon is ``None`` and the rest of the stream is one window: a *batch*.

One rule decides how far any program may run ahead of the engine — a
replayed stream here, a software switch packet
(:mod:`repro.vswitch.switch`) and a HALO query (:mod:`repro.core.isa`):
:func:`observer`.  When something observes the engine per event, nothing
runs ahead, and never silently:

* fault hooks installed (:mod:`repro.faults` keys latencies off the
  clock) — counted as ``replay.fallback.faults``;
* a guard attached (:mod:`repro.guard` audits every event) — counted as
  ``replay.fallback.guard``.

An observed stream replays with a zero budget per window, so each window
prices exactly one trace and the stream spends one timeout per trace.  It
counts its fallback once and no ``replay.batches`` or ``replay.windows``;
otherwise ``replay.batches`` counts unbounded windows and
``replay.windows`` horizon-bounded ones.  Counters are created lazily on
first use, so runs that never replay leave the metric namespace
untouched.  Tests force the one-step-per-trace path everywhere by capping
the horizon at the present (``Engine.next_event_time`` returning
``engine.now``): every window then has a zero budget too.

Caveat (capture): stream executors capture every trace up front
(:meth:`repro.core.software.SoftwareLookupEngine.capture_lookups`) before
replaying, observed or not.  A concurrent process that *mutates* the table
mid-stream would not be reflected in already-captured traces; no shipped
workload runs one (the multicore workloads are lookup-only, no fault
touches a table), and such a stream should make per-key
:meth:`~repro.exec.backend.SoftwareBackend.lookup` calls instead.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional

from .core import CoreModel, ExecutionResult
from .engine import Engine
from .trace import MemTrace

#: Metric names recorded on the registry handed to :class:`TraceReplay`.
METRIC_BATCHES = "replay.batches"
METRIC_WINDOWS = "replay.windows"
METRIC_FALLBACK_FAULTS = "replay.fallback.faults"
METRIC_FALLBACK_GUARD = "replay.fallback.guard"


def observer(engine: Engine) -> Optional[str]:
    """The fallback counter naming what observes ``engine`` per event — an
    installed fault hook, else an attached guard — or None when nothing
    does and a program may run ahead to the engine's horizon."""
    if engine._fault_hooks:
        return METRIC_FALLBACK_FAULTS
    if engine._guard is not None:
        return METRIC_FALLBACK_GUARD
    return None


class TraceReplay:
    """Replays :class:`~repro.sim.trace.MemTrace` sequences as DES programs.

    ``metrics`` is an optional :class:`~repro.obs.metrics.MetricsRegistry`
    that receives the batch/window/fallback counters.
    """

    __slots__ = ("core", "engine", "_metrics")

    def __init__(self, core: CoreModel, engine: Engine, metrics=None) -> None:
        self.core = core
        self.engine = engine
        self._metrics = metrics

    def _count(self, name: str) -> None:
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(name).inc()

    def replay(self, traces: Iterable[MemTrace],
               lock_cycles_each: float = 0.0) -> Generator:
        """DES program replaying ``traces``; returns ``List[ExecutionResult]``.

        Drive with ``engine.run_process`` (or ``yield from`` it inside a
        larger program).  :func:`observer` is asked once per stream.
        """
        traces = list(traces)
        core = self.core
        engine = self.engine
        observed = observer(engine)
        if observed is not None:
            self._count(observed)
        results: List[ExecutionResult] = []
        index = 0
        while index < len(traces):
            if observed is not None:
                budget = 0.0
            else:
                horizon = engine.next_event_time()
                if horizon is None:
                    budget = None
                    self._count(METRIC_BATCHES)
                else:
                    budget = horizon - engine.now
                    self._count(METRIC_WINDOWS)
            window, total, index = core.execute_window(
                traces, index, budget, lock_cycles_each)
            results.extend(window)
            if total:
                yield engine.timeout(total)
        return results

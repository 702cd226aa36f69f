"""Windowed trace replay: one replay loop for streams of traced operations.

Public contract
===============

The conventional way to charge a stream of traced operations is one DES hop
per operation — price the trace on the :class:`~repro.sim.core.CoreModel`,
``yield engine.timeout(cycles)``, repeat.  Each hop costs a generator resume
plus a calendar round-trip, which dominates wall time for replay-heavy
workloads.  :class:`TraceReplay` keeps the per-operation contract — cycle
outcomes are the serial path's, bit for bit (the parity suite pins this) —
but spends the cost in *windows*:

1. ask the engine for the next pending event time
   (:meth:`~repro.sim.engine.Engine.next_event_time`);
2. price traces up to that horizon
   (:meth:`~repro.sim.core.CoreModel.execute_window` — the trace that
   crosses it included, exactly where serial replay would first yield to
   the foreign event);
3. spend the window as one timeout, and repeat.

No foreign process can run strictly inside a window, and at the horizon
the engine's FIFO tie-break picks the same winner it would under per-trace
hops, so the interleaving — which process touches the shared hierarchy
when — is identical to serial replay.  When nothing else is pending the
horizon is ``None`` and the rest of the stream is one window: a *batch*.

Serial replay (:data:`REPLAY_SERIAL`, one trace per window) is used
whenever per-access observation matters, and never silently:

* fault hooks installed (:mod:`repro.faults` keys latencies off the
  clock) — counted as ``replay.fallback.faults``;
* a guard attached (:mod:`repro.guard` audits every event) — counted as
  ``replay.fallback.guard``.

``TraceReplay(serial=True)`` asks for serial replay outright: the reference
side the parity suite compares against.  That is a choice, not a fallback,
and is not counted.  ``replay.batches`` counts unbounded windows and
``replay.windows`` horizon-bounded ones.  Counters are created lazily on
first use, so runs that never replay leave the metric namespace untouched.

Caveat (capture): stream executors capture every trace up front
(:meth:`repro.core.software.SoftwareLookupEngine.capture_lookups`) before
replaying.  A concurrent process that *mutates* the table mid-stream would
not be reflected in already-captured traces; the shipped multicore
workloads are lookup-only, and mutating streams should replay serially.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional

from .core import CoreModel, ExecutionResult
from .engine import Engine
from .trace import MemTrace

#: Replay modes returned by :meth:`TraceReplay.decide`.
REPLAY_WINDOWED = "windowed"
REPLAY_SERIAL = "serial"

#: Metric names recorded on the registry handed to :class:`TraceReplay`.
METRIC_BATCHES = "replay.batches"
METRIC_WINDOWS = "replay.windows"
METRIC_FALLBACK_FAULTS = "replay.fallback.faults"
METRIC_FALLBACK_GUARD = "replay.fallback.guard"


class TraceReplay:
    """Replays :class:`~repro.sim.trace.MemTrace` sequences as DES programs.

    ``serial=True`` prices one trace per window whatever the engine state
    (the classic one-timeout-per-trace idiom).  ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` that receives the
    batch/window/fallback counters.
    """

    __slots__ = ("core", "engine", "serial", "batches", "windows",
                 "fallbacks", "_metrics")

    def __init__(self, core: CoreModel, engine: Engine,
                 serial: bool = False, metrics=None) -> None:
        self.core = core
        self.engine = engine
        self.serial = serial
        #: Unbounded windows, horizon-bounded windows, and streams the
        #: engine state forced to serial (the registry counters mirror
        #: these).
        self.batches = 0
        self.windows = 0
        self.fallbacks = 0
        self._metrics = metrics

    def _count(self, name: str) -> None:
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(name).inc()

    def decide(self) -> str:
        """Resolve the replay mode for the next stream, recording counters.

        Called once per stream: returns :data:`REPLAY_SERIAL` when serial
        replay was asked for or per-access observation needs it — fault
        hooks or a guard, each counted under its ``replay.fallback.*``
        counter — and :data:`REPLAY_WINDOWED` otherwise.
        """
        if self.serial:
            return REPLAY_SERIAL
        engine = self.engine
        if engine._fault_hooks:
            reason = METRIC_FALLBACK_FAULTS
        elif engine._guard is not None:
            reason = METRIC_FALLBACK_GUARD
        else:
            return REPLAY_WINDOWED
        self.fallbacks += 1
        self._count(reason)
        return REPLAY_SERIAL

    def replay(self, traces: Iterable[MemTrace],
               lock_cycles_each: float = 0.0,
               mode: Optional[str] = None) -> Generator:
        """DES program replaying ``traces``; returns ``List[ExecutionResult]``.

        Drive with ``engine.run_process`` (or ``yield from`` it inside a
        larger program).  ``mode`` pins the execution mode (a
        :meth:`decide` result); when omitted it is decided here, so direct
        callers keep the one-call contract.
        """
        traces = list(traces)
        if mode is None:
            mode = self.decide()
        core = self.core
        engine = self.engine
        results: List[ExecutionResult] = []
        index = 0
        while index < len(traces):
            if mode == REPLAY_SERIAL:
                budget = 0.0
            else:
                horizon = engine.next_event_time()
                if horizon is None:
                    budget = None
                    self.batches += 1
                    self._count(METRIC_BATCHES)
                else:
                    budget = horizon - engine.now
                    self.windows += 1
                    self._count(METRIC_WINDOWS)
            window, total, index = core.execute_window(
                traces, index, budget, lock_cycles_each)
            results.extend(window)
            if total:
                yield engine.timeout(total)
        return results

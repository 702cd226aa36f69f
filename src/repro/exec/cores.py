"""Pin backends to cores and run them concurrently on one engine.

:func:`run_cores` is the multi-core entry point the paper's collocation
experiments need: each :class:`CoreWorkload` names a core (either a
global core id, or a socket-local one via ``socket=`` on a multi-socket
:class:`~repro.sim.params.Topology`), a backend kind (or instance), and
either a ``(table, keys)`` stream or an arbitrary program factory.  All workloads are spawned as engine processes and run to
calendar exhaustion, so software PMD loops, HALO issue loops, and NF inner
loops genuinely share the simulated timeline — L1/LLC/DRAM and interconnect
contention emerge from the interleaving instead of being bolted on.

Each per-key completion is stamped with ``engine.now``, so callers (and
tests) can inspect the merged timeline and verify cores actually
interleave rather than running back to back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple, Union

from .backend import BackendKind, LookupBackend, LookupOutcome, make_backend


@dataclass
class CoreWorkload:
    """One core's assignment: which backend runs what.

    Provide either ``table`` + ``keys`` (the common lookup-stream shape) or
    ``program`` — a callable receiving the resolved backend and returning a
    DES generator (for PMD loops, NF pipelines, anything custom).  A
    backend that needs options (a ``ResiliencePolicy``, an adaptive
    window) is passed built, e.g. ``system.backend("halo-nb", core_id=c,
    policy=p)``.
    """

    backend: Union[str, BackendKind, LookupBackend]
    core_id: int = 0
    #: Topology-aware placement: when set, ``core_id`` is interpreted as
    #: a *socket-local* core index and resolved to a global core id
    #: against the system machine's :class:`~repro.sim.params.Topology`
    #: at :func:`run_cores` time.  ``None`` (default) keeps ``core_id``
    #: global — the pre-topology behaviour.
    socket: Optional[int] = None
    table: Any = None
    keys: Sequence[bytes] = ()
    program: Optional[Callable[[LookupBackend], Generator]] = None
    #: Use the backend's batched ``lookup_stream`` instead of per-key
    #: lookups (faster for non-blocking HALO, but per-key timeline marks
    #: collapse to batch boundaries).
    stream: bool = False
    name: str = ""


@dataclass
class CoreResult:
    """What one core did: its outcomes and its slice of the timeline."""

    core_id: int
    kind: Optional[BackendKind]
    result: Any
    started: float
    finished: float
    #: ``engine.now`` after each completed lookup (empty for custom
    #: programs and streamed workloads).
    marks: List[float] = field(default_factory=list)
    name: str = ""

    @property
    def cycles(self) -> float:
        return self.finished - self.started

    @property
    def operations(self) -> int:
        if isinstance(self.result, list):
            return len(self.result)
        return 1

    @property
    def cycles_per_op(self) -> float:
        ops = self.operations
        return self.cycles / ops if ops else 0.0


@dataclass
class MultiCoreRun:
    """The outcome of one :func:`run_cores` call."""

    results: List[CoreResult]
    started: float
    finished: float

    @property
    def elapsed(self) -> float:
        """Wall-clock simulated cycles for the whole run."""
        return self.finished - self.started

    def by_core(self, core_id: int) -> CoreResult:
        for result in self.results:
            if result.core_id == core_id:
                return result
        raise KeyError(f"no workload ran on core {core_id}")

    def timeline(self) -> List[Tuple[float, int]]:
        """Merged per-lookup completion stamps: ``(engine.now, core_id)``."""
        merged = [(mark, result.core_id)
                  for result in self.results for mark in result.marks]
        merged.sort()
        return merged

    def interleavings(self) -> int:
        """Adjacent timeline entries from *different* cores.

        Zero means the cores ran back to back (no true concurrency); a
        healthy collocated run alternates cores throughout.
        """
        timeline = self.timeline()
        return sum(1 for prev, cur in zip(timeline, timeline[1:])
                   if prev[1] != cur[1])


def resolve_placement(system, workload: CoreWorkload) -> CoreWorkload:
    """Resolve socket-relative placement to a global core id.

    Returns ``workload`` untouched when no socket is requested;
    otherwise a copy whose ``core_id`` is the global id of
    ``(socket, local core)`` on the system machine's topology, with the
    topology's own actionable errors for out-of-range placements.
    """
    if workload.socket is None:
        return workload
    from dataclasses import replace

    topology = system.machine.topo
    global_core = topology.core_on(workload.socket, workload.core_id)
    return replace(workload, core_id=global_core, socket=None)


def _resolve_backend(system, workload: CoreWorkload) -> LookupBackend:
    if isinstance(workload.backend, LookupBackend):
        return workload.backend
    return make_backend(workload.backend, system, core_id=workload.core_id)


def _stream_program(backend: LookupBackend, workload: CoreWorkload,
                    marks: List[float], engine) -> Generator:
    if workload.stream:
        outcomes = yield from backend.lookup_stream(workload.table,
                                                    workload.keys)
        return outcomes
    outcomes: List[LookupOutcome] = []
    for key in workload.keys:
        outcome = yield from backend.lookup(workload.table, key)
        outcomes.append(outcome)
        marks.append(engine.now)
    return outcomes


def run_cores(system, workloads: Sequence[CoreWorkload]) -> MultiCoreRun:
    """Run every workload concurrently on the system's engine.

    Returns a :class:`MultiCoreRun` once the calendar drains.  Workloads
    are spawned in list order, which (with the engine's deterministic
    same-cycle FIFO) makes the whole run reproducible.
    """
    engine = system.engine
    started = engine.now
    entries = []
    workloads = [resolve_placement(system, workload)
                 for workload in workloads]
    for index, workload in enumerate(workloads):
        backend = _resolve_backend(system, workload)
        marks: List[float] = []
        name = workload.name or (
            f"core{workload.core_id}:{backend.kind.value}")

        def outer(workload=workload, backend=backend, marks=marks):
            start = engine.now
            if workload.program is not None:
                value = yield from workload.program(backend)
            else:
                value = yield from _stream_program(backend, workload,
                                                   marks, engine)
            return CoreResult(core_id=workload.core_id, kind=backend.kind,
                              result=value, started=start,
                              finished=engine.now, marks=marks)

        entries.append(engine.process(outer(), name=name))
    engine.run()
    results = [process.result for process in entries]
    for result, workload in zip(results, workloads):
        result.name = workload.name or result.name
    return MultiCoreRun(results=results, started=started,
                        finished=engine.now)

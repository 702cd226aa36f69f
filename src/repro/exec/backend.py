"""DES-native lookup backends — one execution model for every compute mode.

Historically the software baseline executed *outside* the simulation engine
(summed core cycles, ``engine.now`` untouched) while the HALO paths ran as
engine processes, so the two could never genuinely interleave on one shared
memory hierarchy.  This module unifies them: a :class:`LookupBackend` is a
factory of *DES generator programs* — software, HALO-blocking,
HALO-nonblocking, and the adaptive hybrid are all scheduled on the shared
:class:`~repro.sim.engine.Engine`, charge their cycles as simulated time,
and replay their memory accesses through the shared hierarchy.  Any mix of
backends can therefore be pinned to cores (see :mod:`repro.exec.cores`) and
contend for L1/LLC/DRAM/interconnect like collocated threads on real
hardware.

Every backend's ``lookup``/``lookup_stream``/``search`` return
:class:`LookupOutcome` values, so callers compare modes without re-imple-
menting per-mode dispatch.  A software stream always captures its traces
up front and replays them through :class:`~repro.sim.replay.TraceReplay`,
whose one stepping rule (:func:`~repro.sim.replay.observer` and the
engine's horizon) decides how many engine steps it takes.  A software
backend's :attr:`SoftwareBackend.software` engine is also what the
virtual switch prices its traced structure operations (EMC probes,
megaflow installs) on.

This module deliberately imports nothing from :mod:`repro.core` at module
level: backends reach the ISA, hierarchy, and software engine through the
``HaloSystem`` facade passed to them, keeping the import layering
one-directional (``repro.exec`` sits between ``repro.core`` and the
workload layer — see ``scripts/check_layering.py``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Any, ClassVar, Generator, Iterable, List, Optional, Sequence, Tuple

from ..hashtable.locking import READ_SIDE_CYCLES
from ..sim.replay import TraceReplay


class BackendKind(Enum):
    """The four execution models a lookup stream can run under."""

    SOFTWARE = "software"
    HALO_BLOCKING = "halo-b"
    HALO_NONBLOCKING = "halo-nb"
    ADAPTIVE = "adaptive"


@dataclass(slots=True)
class LookupOutcome:
    """One lookup's result, uniform across backends.

    Slotted: one is built per lookup on every backend's hot path.

    ``raw`` carries the backend-native result object when one exists (the
    :class:`~repro.core.query.QueryResult` for HALO paths); software
    lookups leave it ``None``.  ``degraded`` marks results produced by a
    resilience fallback (software answered because the accelerator path
    timed out or was known-unhealthy).
    """

    value: Any
    found: bool
    cycles: float
    raw: Any = None
    degraded: bool = False


@dataclass(frozen=True)
class ResiliencePolicy:
    """Bounded-wait + graceful-degradation knobs for accelerator backends.

    Installed on ``halo-nb`` (and through it, ``adaptive``) backends:

    * each ``SNAPSHOT_READ`` poll loop gets a ``poll_budget`` — once spent,
      the wait is retried ``max_retries`` times with exponential backoff
      (``backoff_base * 2**attempt`` cycles between polls);
    * when every retry times out, the lookup is answered by the software
      path instead (zero lost lookups — the abandoned accelerator query
      keeps draining in the background) and the target slice is marked
      unhealthy;
    * an unhealthy slice serves from software, but every
      ``probe_interval``-th lookup probes the accelerator again;
      ``recovery_successes`` consecutive probe successes flip it back to
      healthy (the hysteresis that prevents flapping).
    """

    poll_budget: int = 2048
    max_retries: int = 2
    backoff_base: float = 32.0
    probe_interval: int = 32
    recovery_successes: int = 2

    def __post_init__(self) -> None:
        if self.poll_budget < 1:
            raise ValueError("poll_budget must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (math.isfinite(self.backoff_base) and self.backoff_base >= 0):
            raise ValueError(
                f"ResiliencePolicy.backoff_base must be a finite number "
                f">= 0 (got {self.backoff_base!r})")
        if self.probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        if self.recovery_successes < 1:
            raise ValueError("recovery_successes must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Cycles to wait before retry number ``attempt`` (0-based)."""
        return self.backoff_base * 2.0 ** attempt


class SliceHealth:
    """Health state one backend tracks for one accelerator slice.

    ``events`` is the fallback/recovery timeline:
    ``(cycle, "degraded" | "probe" | "recovered", slice_id)`` tuples, in
    simulated-time order — what ``examples/chaos_demo.py`` prints.
    """

    __slots__ = ("slice_id", "policy", "healthy", "probe_successes",
                 "since_probe", "degraded_lookups", "events")

    def __init__(self, slice_id: int, policy: ResiliencePolicy) -> None:
        self.slice_id = slice_id
        self.policy = policy
        self.healthy = True
        self.probe_successes = 0
        self.since_probe = 0
        self.degraded_lookups = 0
        self.events: List[Tuple[float, str, int]] = []

    def mark_degraded(self, now: float) -> None:
        if self.healthy:
            self.events.append((now, "degraded", self.slice_id))
        self.healthy = False
        self.probe_successes = 0
        self.since_probe = 0

    def should_probe(self) -> bool:
        """While unhealthy: is this lookup the periodic accelerator probe?"""
        self.since_probe += 1
        if self.since_probe >= self.policy.probe_interval:
            self.since_probe = 0
            return True
        return False

    def note_probe_success(self, now: float) -> bool:
        """Record a successful probe; True when it completes the recovery."""
        self.probe_successes += 1
        if self.probe_successes >= self.policy.recovery_successes:
            self.healthy = True
            self.probe_successes = 0
            self.events.append((now, "recovered", self.slice_id))
            return True
        return False

    def note_probe_failure(self) -> None:
        self.probe_successes = 0


class LookupBackend(ABC):
    """A compute mode expressed as DES generator programs.

    Subclasses define :meth:`lookup`; the streaming and multi-table search
    programs have serial defaults built on it.  All generators must be
    driven by the system's engine (``engine.run_process`` for synchronous
    callers, ``engine.process`` for concurrent ones).
    """

    kind: ClassVar[BackendKind]
    #: True when the backend supersedes the software EMC layer (the HALO
    #: pipeline classifies everything through accelerated tuple-space
    #: search, keeping private caches clean — the Figure 12 property).
    replaces_emc: ClassVar[bool] = False

    def __init__(self, system, core_id: int = 0) -> None:
        self.system = system
        self.core_id = core_id

    @abstractmethod
    def lookup(self, table, key: bytes) -> Generator:
        """Program for one lookup; returns a :class:`LookupOutcome`."""

    def lookup_stream(self, table, keys: Iterable[bytes]) -> Generator:
        """Program for a key stream; returns ``List[LookupOutcome]``."""
        outcomes: List[LookupOutcome] = []
        for key in keys:
            outcome = yield from self.lookup(table, key)
            outcomes.append(outcome)
        return outcomes

    def search(self, queries: Sequence[Tuple[Any, bytes]],
               first_match: bool = False) -> Generator:
        """Program searching ``(table, key)`` pairs (tuple-space style).

        With ``first_match`` the search may stop at the first hit (the
        serialised idiom); backends that batch (non-blocking) still issue
        everything and let the caller pick the first hit.  Returns the
        ``List[LookupOutcome]`` actually executed, in query order.
        """
        outcomes: List[LookupOutcome] = []
        for table, key in queries:
            outcome = yield from self.lookup(table, key)
            outcomes.append(outcome)
            if first_match and outcome.found:
                break
        return outcomes


class SoftwareBackend(LookupBackend):
    """The DPDK-style baseline as an engine program.

    Cycle arithmetic is byte-for-byte the pre-DES path — the trace replays
    against the hierarchy and :class:`~repro.sim.core.CoreModel` prices it —
    but the cost is then spent as engine time, so software cores occupy the
    shared timeline and contend with whatever else is running.

    Streams replay through :class:`~repro.sim.replay.TraceReplay`: every
    trace is captured up front and priced in windows between interaction
    points, one timeout per window — the whole stream in one when nothing
    else is pending.  Cycle outcomes, run stats, and metrics agree with
    per-key lookups (the parity suite pins them).  With faults or a guard
    a stream's windows have a zero budget, so it keeps one event per
    lookup; those fallbacks are counted under ``replay.fallback.*``.
    """

    kind = BackendKind.SOFTWARE
    replaces_emc = False

    def __init__(self, system, core_id: int = 0) -> None:
        super().__init__(system, core_id)
        self.software = system.software_engine(core_id)
        obs = getattr(system, "obs", None)
        self.replay = TraceReplay(self.software.core, system.engine,
                                  metrics=getattr(obs, "metrics", None))

    @property
    def core(self):
        return self.software.core

    def lookup(self, table, key: bytes) -> Generator:
        value, result = self.software.lookup(table, key)
        if result.cycles:
            yield self.system.engine.timeout(result.cycles)
        return LookupOutcome(value=value, found=value is not None,
                             cycles=result.cycles)

    def lookup_stream(self, table, keys: Iterable[bytes]) -> Generator:
        """Program for a key stream: every trace is captured up front and
        replayed through :class:`~repro.sim.replay.TraceReplay`."""
        values, traces = self.software.capture_lookups(table, keys)
        results = yield from self.replay.replay(
            traces, lock_cycles_each=READ_SIDE_CYCLES)
        outcome_cls = LookupOutcome
        return [outcome_cls(value=value, found=value is not None,
                            cycles=result.cycles)
                for value, result in zip(values, results)]


class HaloBlockingBackend(LookupBackend):
    """``LOOKUP_B`` issued back to back — the core blocks per query."""

    kind = BackendKind.HALO_BLOCKING
    replaces_emc = True

    def lookup(self, table, key: bytes) -> Generator:
        engine = self.system.engine
        start = engine.now
        result = yield from self.system.isa.lookup_b(self.core_id, table, key)
        return LookupOutcome(value=result.value, found=result.found,
                             cycles=engine.now - start, raw=result)


class HaloNonblockingBackend(LookupBackend):
    """The batched ``LOOKUP_NB`` + ``SNAPSHOT_READ`` idiom (§4.5).

    With a :class:`ResiliencePolicy` installed, every poll loop is bounded
    and the backend degrades to the software path per slice (see the
    policy's docstring).  Without one — the default — the cycle behaviour
    is byte-for-byte the original unbounded idiom.
    """

    kind = BackendKind.HALO_NONBLOCKING
    replaces_emc = True

    def __init__(self, system, core_id: int = 0,
                 policy: Optional[ResiliencePolicy] = None) -> None:
        super().__init__(system, core_id)
        self.policy = policy
        self._health: dict = {}
        self._fallback: Optional[SoftwareBackend] = None
        if policy is not None:
            registry = system.obs.metrics
            self._m_timeouts = registry.counter("exec.resilience.timeouts")
            self._m_retries = registry.counter("exec.resilience.retries")
            self._m_fallbacks = registry.counter("exec.resilience.fallbacks")
            self._m_degraded = registry.counter(
                "exec.resilience.degraded_lookups")
            self._m_probes = registry.counter("exec.resilience.probes")
            self._m_recoveries = registry.counter(
                "exec.resilience.recoveries")

    # -- health bookkeeping ------------------------------------------------
    def health_of(self, table) -> SliceHealth:
        """This backend's health record for the slice serving ``table``."""
        slice_id = self.system.hierarchy.interconnect.slice_of_table(
            table.table_addr)
        health = self._health.get(slice_id)
        if health is None:
            health = self._health[slice_id] = SliceHealth(slice_id,
                                                          self.policy)
        return health

    @property
    def resilience_events(self) -> List[Tuple[float, str, int]]:
        """All slices' fallback/recovery events, in simulated-time order."""
        events = [event for health in self._health.values()
                  for event in health.events]
        events.sort()
        return events

    @property
    def degraded_lookups(self) -> int:
        return sum(health.degraded_lookups for health in self._health.values())

    def lookup(self, table, key: bytes) -> Generator:
        if self.policy is not None:
            outcome = yield from self._resilient_lookup(table, key)
            return outcome
        engine = self.system.engine
        isa = self.system.isa
        start = engine.now
        process = yield from isa.lookup_nb(self.core_id, table, key)
        results = yield from isa.snapshot_read_poll(self.core_id, [process])
        result = results[0]
        return LookupOutcome(value=result.value, found=result.found,
                             cycles=engine.now - start, raw=result)

    def lookup_stream(self, table, keys: Iterable[bytes]) -> Generator:
        if self.policy is not None:
            # Per-key bounded waits: the batched poll shares one result
            # line across eight queries and cannot time one out alone.
            outcomes = yield from LookupBackend.lookup_stream(self, table,
                                                              keys)
            return outcomes
        keys = list(keys)
        engine = self.system.engine
        start = engine.now
        results = yield from self.system.isa.lookup_batch(
            self.core_id, table, keys)
        elapsed = engine.now - start
        per_op = elapsed / len(results) if results else 0.0
        return [LookupOutcome(value=r.value, found=r.found, cycles=per_op,
                              raw=r) for r in results]

    # -- the resilient path ------------------------------------------------
    def _resilient_lookup(self, table, key: bytes) -> Generator:
        engine = self.system.engine
        health = self.health_of(table)
        start = engine.now
        if not health.healthy:
            if health.should_probe():
                self._m_probes.inc()
                outcome = yield from self._attempt(table, key, start, health,
                                                   probing=True)
                if outcome is not None:
                    return outcome
            health.degraded_lookups += 1
            self._m_degraded.inc()
            outcome = yield from self._fallback_lookup(table, key, start)
            return outcome
        outcome = yield from self._attempt(table, key, start, health,
                                           probing=False)
        if outcome is not None:
            return outcome
        self._m_fallbacks.inc()
        self.system.obs.trace.root(
            "resilience.degraded", engine.now,
            slice=health.slice_id, core=self.core_id).finish(engine.now)
        health.mark_degraded(engine.now)
        health.degraded_lookups += 1
        self._m_degraded.inc()
        outcome = yield from self._fallback_lookup(table, key, start)
        return outcome

    def _attempt(self, table, key: bytes, start: float, health: SliceHealth,
                 probing: bool) -> Generator:
        """One accelerated lookup under the poll budget; None on timeout.

        A timed-out query is abandoned, not cancelled: it still drains in
        the background and its result slot is simply never read.
        """
        engine = self.system.engine
        isa = self.system.isa
        policy = self.policy
        process = yield from isa.lookup_nb(self.core_id, table, key)
        results = yield from isa.snapshot_read_poll(
            self.core_id, [process], budget=policy.poll_budget)
        attempt = 0
        while results is None and attempt < policy.max_retries:
            self._m_timeouts.inc()
            self._m_retries.inc()
            yield engine.timeout(policy.backoff(attempt))
            attempt += 1
            results = yield from isa.snapshot_read_poll(
                self.core_id, [process], budget=policy.poll_budget)
        if results is None:
            self._m_timeouts.inc()
            if probing:
                health.note_probe_failure()
            return None
        result = results[0]
        if probing and health.note_probe_success(engine.now):
            self._m_recoveries.inc()
            self.system.obs.trace.root(
                "resilience.recovered", engine.now,
                slice=health.slice_id, core=self.core_id).finish(engine.now)
        return LookupOutcome(value=result.value, found=result.found,
                             cycles=engine.now - start, raw=result)

    def _fallback_lookup(self, table, key: bytes,
                         start: float) -> Generator:
        if self._fallback is None:
            self._fallback = SoftwareBackend(self.system, self.core_id)
        outcome = yield from self._fallback.lookup(table, key)
        return LookupOutcome(value=outcome.value, found=outcome.found,
                             cycles=self.system.engine.now - start,
                             raw=outcome.raw, degraded=True)

    def search(self, queries: Sequence[Tuple[Any, bytes]],
               first_match: bool = False) -> Generator:
        """Fan all queries out at once, one result line, one poll loop."""
        if not queries:
            return []
        engine = self.system.engine
        isa = self.system.isa
        start = engine.now
        pending = []
        for table, key in queries:
            process = yield from isa.lookup_nb(self.core_id, table, key)
            pending.append(process)
        results = yield from isa.snapshot_read_poll(self.core_id, pending)
        elapsed = engine.now - start
        per_op = elapsed / len(results) if results else 0.0
        return [LookupOutcome(value=r.value, found=r.found, cycles=per_op,
                              raw=r) for r in results]


class AdaptiveBackend(LookupBackend):
    """The hybrid controller's mode, re-evaluated every ``window`` lookups.

    Delegates each lookup to the software or non-blocking HALO sub-backend
    according to :class:`~repro.core.hybrid.HybridController`, feeding the
    controller's flow estimator on the software side exactly as the
    pre-backend adaptive episode runner did.
    """

    kind = BackendKind.ADAPTIVE
    replaces_emc = False

    def __init__(self, system, core_id: int = 0, window: int = 256,
                 policy: Optional[ResiliencePolicy] = None) -> None:
        super().__init__(system, core_id)
        self.window = window
        self.policy = policy
        self._software = SoftwareBackend(system, core_id)
        self._halo = HaloNonblockingBackend(system, core_id, policy=policy)
        self._in_window = 0

    @property
    def resilience_events(self) -> List[Tuple[float, str, int]]:
        """Fallback/recovery timeline of the HALO sub-backend."""
        return self._halo.resilience_events

    @property
    def degraded_lookups(self) -> int:
        return self._halo.degraded_lookups

    @property
    def active(self) -> LookupBackend:
        """The sub-backend the hybrid controller currently selects."""
        # Imported lazily through the system to avoid a static exec->core
        # edge; ComputeMode.HALO is the only non-software mode.
        if self.system.hybrid.mode.value == "halo":
            return self._halo
        return self._software

    def _observe_software(self, table, key: bytes) -> None:
        self.system.hybrid.observe_software_lookup(
            table.probe(key).primary_hash)

    def _tick_window(self, count: int = 1) -> None:
        self._in_window += count
        if self._in_window >= self.window:
            self._in_window = 0
            self.system.hybrid.end_window()

    def lookup(self, table, key: bytes) -> Generator:
        backend = self.active
        outcome = yield from backend.lookup(table, key)
        if backend is self._software:
            self._observe_software(table, key)
        self._tick_window()
        return outcome

    def lookup_stream(self, table, keys: Iterable[bytes]) -> Generator:
        """Window-chunked stream: batch HALO windows, serial software ones."""
        keys = list(keys)
        outcomes: List[LookupOutcome] = []
        for start in range(0, len(keys), self.window):
            chunk = keys[start:start + self.window]
            backend = self.active
            if backend is self._halo:
                chunk_outcomes = yield from backend.lookup_stream(table, chunk)
            else:
                chunk_outcomes = []
                for key in chunk:
                    outcome = yield from backend.lookup(table, key)
                    self._observe_software(table, key)
                    chunk_outcomes.append(outcome)
            outcomes.extend(chunk_outcomes)
            self.system.hybrid.end_window()
        return outcomes


_BACKENDS = {
    BackendKind.SOFTWARE: SoftwareBackend,
    BackendKind.HALO_BLOCKING: HaloBlockingBackend,
    BackendKind.HALO_NONBLOCKING: HaloNonblockingBackend,
    BackendKind.ADAPTIVE: AdaptiveBackend,
}


def make_backend(kind, system, core_id: int = 0, **kwargs) -> LookupBackend:
    """Build a backend from a :class:`BackendKind` or its string value."""
    if isinstance(kind, str):
        kind = BackendKind(kind)
    return _BACKENDS[kind](system, core_id=core_id, **kwargs)

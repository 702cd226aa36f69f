"""The per-CHA HALO accelerator (paper §4.3, Figure 6).

One accelerator sits beside each CHA/LLC slice.  It executes lookup queries
as a sequence of scoreboard-tracked steps:

1. fetch the table's metadata (Metadata Cache hit, or a CHA-side line read);
2. fetch the key from the query's key address;
3. hash the key (one fully-pipelined hash unit per accelerator);
4. lock and read the primary bucket, compare signatures;
5. on a signature match, fetch and compare the key-value pair;
6. otherwise repeat on the alternative bucket;
7. unlock, commit the query, push the result to its destination.

All data accesses use the CHA-side path (:meth:`MemoryHierarchy.cha_access`),
so they never pollute private caches — the property behind Figure 12.

Public contract
===============

The stages are written once, as programs over a *clock*: each stage
either yields its timeout on the engine or advances a
:class:`LocalClock`, and :meth:`HaloAccelerator._complete` applies a
query's completion effects (scoreboard release and peak occupancy,
:class:`AcceleratorStats`, the service record and histogram, the span
finish) on both paths.  Two methods run them:

* :meth:`HaloAccelerator.serve` — a DES process that **yields per
  stage** (scoreboard slot, table port, hash unit and every stage's
  timeout).  Every query that :class:`~repro.core.isa.HaloIsa` does not
  fuse, every ``LOOKUP_NB`` issued on its own and every direct ``serve``
  process takes it.
* :meth:`HaloAccelerator.serve_local` — a plain call that serves queries
  to one table, arriving at given cycles, on a local clock: the table
  port serialises them in arrival order, so their stages run query by
  query, and their completion effects are applied in completion order
  (by cycle, then port order), each arrival admitted to the scoreboard
  just before the first completion after it.  The ISA uses it only
  when :meth:`HaloAccelerator.can_fuse` holds and the engine is
  otherwise idle (:mod:`repro.core.isa`), so no other process can touch
  the accelerator or the hierarchy before the last completion.

Both paths make the same cache accesses, lock-bit changes, spans,
metrics and stats, in the same order and at the same cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

from ..hashtable.cuckoo import LookupPlan
from ..obs import NULL_SPAN
from ..sim.engine import Engine
from ..sim.hierarchy import AccessResult, MemoryHierarchy
from ..sim.params import HaloParams
from ..sim.stats import RunningStats
from .flow_register import FlowRegister
from .locking import HardwareLockManager
from .metadata_cache import MetadataCache
from .query import LookupQuery, QueryResult, ResultDestination
from .scoreboard import Scoreboard


@dataclass
class AcceleratorStats:
    queries: int = 0
    hits: int = 0
    memory_accesses: int = 0
    metadata_hits: int = 0
    metadata_misses: int = 0
    hash_operations: int = 0
    boundary_violations: int = 0
    service: RunningStats = field(default_factory=RunningStats)


class BoundaryViolation(RuntimeError):
    """A query tried to reach outside its table's regions (§4.7).

    The accelerator "enforces boundary check for each memory access": a
    corrupted bucket pointer or malicious metadata cannot make it read or
    write arbitrary memory.
    """


class LocalClock:
    """The clock of a query or batch served as a plain call.

    It stands in for the engine in the stage programs: ``timeout``
    advances ``now`` by the stage's cycles and returns None, so the stage
    resumes at once under :func:`run_local`.  Adding each stage's cycles
    in order reaches the cycle the engine's timeouts would reach.
    """

    __slots__ = ("now",)

    def __init__(self, now: float = 0) -> None:
        self.now = now

    def timeout(self, delay: float) -> None:
        self.now += delay


def run_local(program: Generator):
    """Run a stage program on a :class:`LocalClock` to its end; returns
    its value.  What it yields (None, or an already granted resource
    event) needs no wait."""
    send = program.send
    try:
        while True:
            send(None)
    except StopIteration as stop:
        return stop.value


class HaloAccelerator:
    """One near-cache lookup accelerator attached to a CHA."""

    def __init__(
        self,
        engine: Engine,
        hierarchy: MemoryHierarchy,
        slice_id: int,
        params: Optional[HaloParams] = None,
        lock_manager: Optional[HardwareLockManager] = None,
    ) -> None:
        self.engine = engine
        self.hierarchy = hierarchy
        self.slice_id = slice_id
        self.params = params or hierarchy.machine.halo
        self.scoreboard = Scoreboard(engine, self.params.scoreboard_entries)
        self.hash_unit = engine.resource(1)
        # Structural hazard: queries against the *same* table serialise
        # (they contend on the table's metadata-cache entry and scoreboard
        # sequencing), while queries to different tables overlap through the
        # scoreboard's outstanding data requests.  This reproduces the
        # paper's observation that non-blocking mode gains little on a
        # single table (Figure 9) yet scales tuple-space search across
        # tuples (Figure 11).
        self._table_ports: dict = {}
        self.metadata_cache = MetadataCache(
            slice_id, self.params.metadata_cache_tables,
            hierarchy.snoop_filter)
        self.lock_manager = lock_manager or HardwareLockManager(
            hierarchy, enabled=self.params.enabled_lock_bits)
        self.flow_register = FlowRegister()
        self.stats = AcceleratorStats()
        # Registry-backed metrics: shared across slices (one machine-wide
        # service histogram / counter set) plus a per-slice pull source.
        registry = hierarchy.obs.metrics
        self._m_service = registry.histogram(
            "halo.accelerator.service_cycles")
        self._m_queries = registry.counter("halo.accelerator.queries")
        self._m_hits = registry.counter("halo.accelerator.hits")
        self._m_misses = registry.counter("halo.accelerator.misses")
        self._m_meta_hits = registry.counter(
            "halo.accelerator.metadata_hits")
        self._m_meta_misses = registry.counter(
            "halo.accelerator.metadata_misses")
        registry.register_source(f"halo.accelerator.slice{slice_id}",
                                 self._metrics_source)

    def _metrics_source(self) -> dict:
        """Per-slice pull source: stats block + flow-register state.

        Idle slices report nothing, keeping snapshots and the report table
        proportional to the machine's *active* accelerators."""
        stats = self.stats
        if not (stats.queries or stats.memory_accesses
                or self.flow_register.stats.observations):
            return {}
        return {
            "queries": stats.queries,
            "hits": stats.hits,
            "memory_accesses": stats.memory_accesses,
            "metadata_hits": stats.metadata_hits,
            "metadata_misses": stats.metadata_misses,
            "hash_operations": stats.hash_operations,
            "boundary_violations": stats.boundary_violations,
            "service_mean_cycles": stats.service.mean,
            "flow_register_observations":
                self.flow_register.stats.observations,
            "flow_register_last_estimate": self.flow_register.last_estimate,
        }

    @property
    def busy(self) -> bool:
        return self.scoreboard.busy

    def can_fuse(self, table_addr: int, queries: int) -> bool:
        """True when ``queries`` to the table at ``table_addr`` may be
        served as a plain call (:meth:`serve_local`): the scoreboard, the
        table's port and the hash unit are free with empty queues, and
        the scoreboard has an entry for every query."""
        slots = self.scoreboard._slots
        hash_unit = self.hash_unit
        port = self._table_ports.get(table_addr)
        return (slots.in_use == 0 and not slots._queue
                and slots.capacity >= queries
                and hash_unit.in_use == 0 and not hash_unit._queue
                and (port is None or (port.in_use == 0 and not port._queue)))

    # -- internals -----------------------------------------------------------
    def _mem(self, addr: int, write: bool = False) -> AccessResult:
        """One CHA-side data access; returns the full access result so
        callers can stamp the serving level onto their trace span."""
        result = self.hierarchy.cha_access(self.slice_id, addr, write=write)
        self.stats.memory_accesses += 1
        return result

    def _checked_table_access(self, query: LookupQuery, addr: int,
                              region_kind: str) -> AccessResult:
        """A table data access with the §4.7 boundary check applied."""
        layout = query.table.layout
        region = (layout.buckets if region_kind == "buckets"
                  else layout.key_values)
        if not region.contains(addr):
            self.stats.boundary_violations += 1
            raise BoundaryViolation(
                f"query {query.query_id}: {region_kind} access {addr:#x} "
                f"outside [{region.base:#x}, {region.end:#x})")
        return self._mem(addr)

    # -- the query FSM: stage programs over a clock (module docstring) ---------
    def _fetch_metadata(self, query: LookupQuery, clock,
                        span=NULL_SPAN) -> Generator:
        line = self.hierarchy.line_of(query.table_addr)
        stage = span.child("metadata_fetch", clock.now)
        if self.metadata_cache.lookup(line):
            self.stats.metadata_hits += 1
            self._m_meta_hits.inc()
            yield clock.timeout(1)
            stage.note(hit=True)
            stage.finish(clock.now)
            return
        self.stats.metadata_misses += 1
        self._m_meta_misses.inc()
        access = self._mem(query.table_addr)
        yield clock.timeout(access.latency)
        self.metadata_cache.fill(line, query.table)
        stage.note(hit=False, level=access.level)
        stage.finish(clock.now)

    def _hash(self, clock, key_bytes: int = 16) -> Generator:
        """Run the key through the pipelined hash unit.

        The unit consumes one 8-byte lane per issue interval, so larger
        keys (§3.4: 4-64 B headers) occupy the pipeline longer.
        """
        lanes = max(1, -(-key_bytes // 8))
        yield self.hash_unit.acquire()
        yield clock.timeout(self.params.hash_issue_interval * lanes)
        self.hash_unit.release()
        remaining = self.params.hash_latency - self.params.hash_issue_interval
        if remaining > 0:
            yield clock.timeout(remaining)
        self.stats.hash_operations += 1

    def _probe(self, query: LookupQuery, clock, span) -> Generator:
        """Stages 1-6, run while the query holds its table's port;
        returns the lookup plan."""
        yield from self._fetch_metadata(query, clock, span)

        # Fetch the key.
        stage = span.child("key_fetch", clock.now)
        access = self._mem(query.key_addr)
        yield clock.timeout(access.latency)
        stage.note(level=access.level)
        stage.finish(clock.now)

        # Hash.
        stage = span.child("hash", clock.now)
        yield from self._hash(clock, getattr(query.table, "key_bytes", 16))
        stage.finish(clock.now)
        plan: LookupPlan = query.table.probe(query.key)
        self.flow_register.observe(plan.primary_hash)

        # Lock both candidate bucket lines for the query's duration.
        lease = self.lock_manager.lock_lines(
            {plan.primary_addr, plan.secondary_addr})
        try:
            yield from self._scan_bucket(query, plan, lease, clock,
                                         secondary=False, span=span)
            if not plan.found or plan.found_in_secondary:
                if plan.secondary_addr != plan.primary_addr:
                    yield from self._scan_bucket(query, plan, lease, clock,
                                                 secondary=True, span=span)
        finally:
            lease.release_all()
        return plan

    def _deliver(self, query: LookupQuery, clock, span) -> Generator:
        """Stage 7: push the result to its destination.  It runs after
        the port is released, off the table's critical path, so the next
        query to the table can start."""
        stage = span.child("deliver", clock.now,
                           destination=query.destination.value)
        if query.destination is ResultDestination.MEMORY:
            access = self._mem(query.result_addr, write=True)
            yield clock.timeout(access.latency)
        else:
            yield clock.timeout(self.hierarchy.latency.result_return)
        stage.finish(clock.now)

    def _scan_bucket(self, query: LookupQuery, plan: LookupPlan, lease,
                     clock, secondary: bool, span=NULL_SPAN) -> Generator:
        """Read one bucket line, compare signatures, chase kv matches."""
        stage = span.child("bucket_scan", clock.now, secondary=secondary)
        addr = plan.secondary_addr if secondary else plan.primary_addr
        access = self._checked_table_access(query, addr, "buckets")
        yield clock.timeout(access.latency)
        stage.note(bucket_level=access.level)
        # The fetch brought the line to the LLC; (re-)set its lock bit for
        # the remainder of the query (tracked by the query's lease).
        if self.params.enabled_lock_bits:
            lease.lock(addr)
        # Signature comparison across the bucket's entries (parallel
        # comparators, constant latency).
        yield clock.timeout(self.params.compare_latency)
        kv_probes = (plan.kv_probes_secondary if secondary
                     else plan.kv_probes_primary)
        for kv_addr in kv_probes:
            # Fetch, lock, and compare the key-value pair.
            lease = self.lock_manager.lease()
            try:
                kv_stage = stage.child("kv_probe", clock.now)
                access = self._checked_table_access(query, kv_addr,
                                                    "key_values")
                yield clock.timeout(access.latency)
                if self.params.enabled_lock_bits:
                    lease.lock(kv_addr)
                yield clock.timeout(self.params.compare_latency)
                kv_stage.note(level=access.level)
                kv_stage.finish(clock.now)
            finally:
                lease.release_all()
        stage.finish(clock.now)

    def _complete(self, query: LookupQuery, plan: LookupPlan,
                  started: float, now: float, span) -> QueryResult:
        """A query's completion effects at cycle ``now``, for both
        paths: free its scoreboard entry, close its span and record it."""
        self.scoreboard.complete()
        span.finish(now)
        self.stats.queries += 1
        self._m_queries.inc()
        if plan.found:
            self.stats.hits += 1
            self._m_hits.inc()
        else:
            self._m_misses.inc()
        service_cycles = now - started
        self.stats.service.record(service_cycles)
        self._m_service.observe(service_cycles)
        span.note(found=plan.found)
        return QueryResult(
            query=query,
            found=plan.found,
            value=plan.value,
            started_at=started,
            completed_at=now,
            accelerator_slice=self.slice_id,
        )

    # -- the two paths ---------------------------------------------------------
    def serve(self, query: LookupQuery) -> Generator:
        """Process one query, yielding per stage; a DES process returning
        a QueryResult."""
        engine = self.engine
        parent = query.span if query.span is not None else NULL_SPAN
        queue_span = parent.child("accelerator.queue", engine.now,
                                  slice=self.slice_id)
        yield self.scoreboard.admit()
        # Fault seam: an installed injector may stall the query here, after
        # it holds a scoreboard slot — a stalled slice backs up exactly like
        # real head-of-line blocking (busy bit rises, distributor holds).
        gate = engine.fault_hook("accelerator.serve")
        if gate is not None:
            yield from gate(self)
        port = self._table_ports.get(query.table_addr)
        if port is None:
            port = self._table_ports[query.table_addr] = engine.resource(1)
        yield port.acquire()
        queue_span.finish(engine.now)
        span = parent.child("accelerator.serve", engine.now,
                            slice=self.slice_id)
        started = engine.now
        try:
            try:
                plan = yield from self._probe(query, engine, span)
            finally:
                port.release()
            yield from self._deliver(query, engine, span)
        except BaseException:
            # A faulting or killed query still frees its entry.
            self.scoreboard.complete()
            span.finish(engine.now)
            raise
        return self._complete(query, plan, started, engine.now, span)

    def serve_local(self, arrivals: Sequence[Tuple[LookupQuery, float]]
                    ) -> List[Tuple[int, QueryResult]]:
        """Serve queries to one table as a plain call (module docstring).

        ``arrivals`` pairs each query with the cycle it reaches the
        accelerator, in arrival order; the caller has checked
        :meth:`can_fuse`.  Returns ``(index, result)`` pairs in completion
        order.
        """
        clock = LocalClock()
        port_free = arrivals[0][1]
        served = []
        for index, (query, arrival) in enumerate(arrivals):
            parent = query.span if query.span is not None else NULL_SPAN
            queue_span = parent.child("accelerator.queue", arrival,
                                      slice=self.slice_id)
            # The port serialises the queries in arrival order.
            start = max(arrival, port_free)
            queue_span.finish(start)
            span = parent.child("accelerator.serve", start,
                                slice=self.slice_id)
            clock.now = start
            plan = run_local(self._probe(query, clock, span))
            port_free = clock.now
            run_local(self._deliver(query, clock, span))
            served.append((clock.now, index, plan, start, span))
        # Completion order: by cycle, then by port order.  A later query
        # whose result write is faster can finish first.
        served.sort()
        results = []
        admitted = 0
        for end, index, plan, start, span in served:
            # An arrival on a completion's cycle is admitted after it.
            while admitted < len(arrivals) and arrivals[admitted][1] < end:
                self.scoreboard.admit()
                admitted += 1
            results.append((index, self._complete(arrivals[index][0], plan,
                                                  start, end, span)))
        return results

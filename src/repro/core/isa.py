"""The x86-64 instruction-set extension (paper §4.5).

Three instructions make HALO programmable:

* ``LOOKUP_B mem.key_addr reg.result`` — blocking lookup.  The table address
  is implicit in RAX/EAX.  Behaves like a long-latency load: the issuing
  core waits for the accelerator's result.
* ``LOOKUP_NB mem.key_addr mem.result`` — non-blocking lookup.  Behaves like
  a store: the query is posted and the accelerator later writes the result
  to the given memory slot; the core keeps executing.
* ``SNAPSHOT_READ mem.result_addr reg.result`` — reads the current value of
  a result line *without changing cache-line ownership*, so polling does not
  bounce the line between the LLC and private caches.  A vector variant
  snapshots a whole 64-byte line (eight result slots) at once, checked with
  AVX integer compares.

These are modelled as DES generators that charge the issuing core the right
number of cycles and interact with the query distributor.

Public contract
===============

A query's cycles, its :class:`~repro.core.query.QueryResult`, every cache
access, lock bit, span, metric and stat, and the end time on the engine
do not depend on how many engine steps the query takes.  Two paths are
**one engine step** — served as a plain call on a local clock
(:meth:`~repro.core.distributor.QueryDistributor.serve_local`), then one
timeout ending where the per-stage path would end — when all hold as
they start:

* no fault hook or guard observes the engine
  (:func:`~repro.sim.replay.observer` is ``None``);
* the engine is otherwise idle (:meth:`~repro.sim.engine.Engine.
  next_event_time` is ``None``), so no other process can run before the
  last completion;
* the target accelerator's scoreboard, table port and hash unit are free
  with empty queues, and the scoreboard has an entry for every query
  (:meth:`~repro.core.accelerator.HaloAccelerator.can_fuse`).

The two paths are a :meth:`HaloIsa.lookup_b` and a
:meth:`HaloIsa.lookup_batch` chunk: up to eight ``LOOKUP_NB`` queries to
one table plus the poll loop, which exits at the first poll strictly after
the last completion.  Every other ``LOOKUP_B`` or chunk **yields per
stage** and is counted: a busy engine or accelerator under
``halo.fallback.busy`` (created on first use), a fault hook or a guard
under ``replay.fallback.faults`` / ``replay.fallback.guard``.  A
:meth:`HaloIsa.lookup_nb` issued on its own (multi-table fan-outs, the
resilient path) always yields per stage and is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..sim.engine import Engine, Process
from ..sim.hierarchy import MemoryHierarchy
from ..sim.replay import observer
from .accelerator import LocalClock, run_local
from .distributor import QueryDistributor
from .query import LookupQuery, QueryResult, ResultDestination

#: Results per cache line for the batched LOOKUP_NB + SNAPSHOT_READ idiom.
RESULTS_PER_LINE = 8

#: Counts LOOKUP_Bs and ``lookup_batch`` chunks that yielded per stage
#: because the engine or the accelerator was busy (module docstring).
METRIC_FALLBACK_BUSY = "halo.fallback.busy"


@dataclass(frozen=True)
class IssueCosts:
    """Core-side pipeline occupancy of each new instruction."""

    lookup_b_issue: int = 1     # like a load: 1 issue slot, then blocks
    lookup_nb_issue: int = 1    # like a store: 1 issue slot, fire and forget
    snapshot_check: int = 4     # AVX compare of a snapshotted line


@dataclass
class IsaStats:
    lookup_b: int = 0
    lookup_nb: int = 0
    snapshot_reads: int = 0
    snapshot_polls_spent: int = 0

    def as_dict(self) -> dict:
        """Flat scalar view for the metrics registry (pull source)."""
        return {"lookup_b": self.lookup_b, "lookup_nb": self.lookup_nb,
                "snapshot_reads": self.snapshot_reads,
                "snapshot_polls_spent": self.snapshot_polls_spent}


class HaloIsa:
    """Instruction-level interface used by simulated programs."""

    def __init__(self, engine: Engine, hierarchy: MemoryHierarchy,
                 distributor: QueryDistributor,
                 costs: Optional[IssueCosts] = None) -> None:
        self.engine = engine
        self.hierarchy = hierarchy
        self.distributor = distributor
        self.costs = costs or IssueCosts()
        self.stats = IsaStats()
        hierarchy.obs.metrics.register_source("halo.isa", self.stats.as_dict)
        #: Snapshot polls burnt per batch before all results landed.
        self._m_polls = hierarchy.obs.metrics.histogram(
            "halo.isa.polls_per_batch",
            bounds=tuple(float(1 << exp) for exp in range(9)))
        # Result slots for LOOKUP_NB live in a dedicated, line-aligned region
        # that is kept LLC-resident (the SNAPSHOT_READ idiom never lets these
        # lines leave the LLC).
        self._result_region = hierarchy.allocator.alloc(
            4096, "halo.result_slots")
        hierarchy.warm_llc(self._result_region.base, self._result_region.size)
        self._next_slot = 0

    # -- result-slot management -----------------------------------------------
    def result_slot(self) -> int:
        """A fresh 8-byte result address (wraps around the region)."""
        addr = self._result_region.base + (self._next_slot % 512) * 8
        self._next_slot += 1
        return addr

    def result_line(self) -> int:
        """A fresh line-aligned result address for an 8-query batch."""
        line = (self._next_slot + RESULTS_PER_LINE - 1) // RESULTS_PER_LINE
        self._next_slot = (line + 1) * RESULTS_PER_LINE
        return self._result_region.base + (line * 64) % self._result_region.size

    # -- one engine step or per stage ----------------------------------------------
    def _fuses(self, table, queries: int) -> bool:
        """May ``queries`` to ``table`` run as one engine step (module
        docstring)?  Counts the fallback when they may not."""
        engine = self.engine
        reason = observer(engine)
        if reason is None:
            if (engine.next_event_time() is None
                    and self.distributor.accelerator_for(table).can_fuse(
                        table.table_addr, queries)):
                return True
            reason = METRIC_FALLBACK_BUSY
        self.hierarchy.obs.metrics.counter(reason).inc()
        return False

    # -- LOOKUP_B ----------------------------------------------------------------
    def _query(self, core_id: int, table, key: bytes,
               key_addr: Optional[int],
               result_addr: Optional[int] = None) -> LookupQuery:
        """A ``LOOKUP_NB`` query when it has a result address, else a
        ``LOOKUP_B`` one."""
        return LookupQuery(
            table=table,
            key=key,
            key_addr=key_addr if key_addr is not None else table._key_scratch,
            destination=(ResultDestination.REGISTER if result_addr is None
                         else ResultDestination.MEMORY),
            result_addr=result_addr,
            core_id=core_id,
        )

    def lookup_b(self, core_id: int, table, key: bytes,
                 key_addr: Optional[int] = None) -> Generator:
        """Blocking lookup: yields the QueryResult when it arrives."""
        self.stats.lookup_b += 1
        engine = self.engine
        issue = self.costs.lookup_b_issue
        if self._fuses(table, 1):
            result, = self.distributor.serve_local(
                [(self._query(core_id, table, key, key_addr),
                  engine.now + issue)])
            yield engine.timeout(result.completed_at - engine.now)
            return result
        yield engine.timeout(issue)
        result: QueryResult = yield self.distributor.dispatch(
            self._query(core_id, table, key, key_addr))
        return result

    # -- LOOKUP_NB ----------------------------------------------------------------
    def lookup_nb(self, core_id: int, table, key: bytes,
                  key_addr: Optional[int] = None,
                  result_addr: Optional[int] = None) -> Generator:
        """Non-blocking lookup: yields only the issue cost, returns the
        in-flight :class:`Process` whose value will be the QueryResult.
        It always yields per stage (module docstring)."""
        self.stats.lookup_nb += 1
        yield self.engine.timeout(self.costs.lookup_nb_issue)
        return self.distributor.dispatch(self._query(
            core_id, table, key, key_addr,
            result_addr if result_addr is not None else self.result_slot()))

    # -- SNAPSHOT_READ ---------------------------------------------------------------
    def _poll(self, clock, done, budget: Optional[int] = None) -> Generator:
        """Stage program: SNAPSHOT_READ polls on ``clock`` until ``done()``
        reads true after a poll; returns False when ``budget`` polls ran
        out first."""
        poll_latency = (self.hierarchy.latency.cha_llc_hit
                        + self.hierarchy.latency.llc_hit) // 2
        polls = 0
        while True:
            self.stats.snapshot_reads += 1
            polls += 1
            yield clock.timeout(poll_latency + self.costs.snapshot_check)
            if done():
                break
            if budget is not None and polls >= budget:
                self._m_polls.observe(polls)
                return False
            self.stats.snapshot_polls_spent += 1
            # Re-poll after a short back-off (the snapshot keeps the line in
            # the LLC, so re-reads stay cheap and cause no bouncing).
            yield clock.timeout(4)
        self._m_polls.observe(polls)
        return True

    def snapshot_read_poll(self, core_id: int, pending: List[Process],
                           budget: Optional[int] = None) -> Generator:
        """Poll a batch's result line until every query completed.

        Each poll is one (vector) SNAPSHOT_READ: an LLC-latency read that
        does not change the line's ownership, plus an AVX all-non-zero check.
        Returns the list of :class:`QueryResult`.

        ``budget`` bounds the number of polls (resilience policies use it
        as a timeout against stalled accelerators): once spent, returns
        ``None`` instead of results — the in-flight queries stay pending
        and keep draining in the background.  ``budget=None`` (default)
        polls forever, replaying the unbounded cycle sequence exactly.
        """
        landed = yield from self._poll(
            self.engine, lambda: all(process.done for process in pending),
            budget)
        if not landed:
            return None
        return [process.result for process in pending]

    # -- the batched NB idiom (paper §4.5 example) -----------------------------------
    def lookup_batch(self, core_id: int, table, keys,
                     key_addrs=None) -> Generator:
        """Issue up to eight LOOKUP_NBs to one result line, then poll.

        Returns the list of QueryResults in key order.  A chunk is one
        engine step when it may be (module docstring).
        """
        keys = list(keys)
        results: List[QueryResult] = []
        for start in range(0, len(keys), RESULTS_PER_LINE):
            chunk = keys[start:start + RESULTS_PER_LINE]
            addrs = (key_addrs[start:start + len(chunk)]
                     if key_addrs is not None else [None] * len(chunk))
            line_base = self.result_line()
            if self._fuses(table, len(chunk)):
                chunk_results = yield from self._fused_chunk(
                    core_id, table, chunk, addrs, line_base)
                results.extend(chunk_results)
                continue
            pending: List[Process] = []
            for offset, key in enumerate(chunk):
                process = yield from self.lookup_nb(
                    core_id, table, key, key_addr=addrs[offset],
                    result_addr=line_base + offset * 8)
                pending.append(process)
            chunk_results = yield from self.snapshot_read_poll(core_id, pending)
            results.extend(chunk_results)
        return results

    def _fused_chunk(self, core_id: int, table, chunk, addrs,
                     line_base: int) -> Generator:
        """One chunk as one engine step: issue, serve and poll on a local
        clock, then spend one timeout ending at the last poll."""
        engine = self.engine
        clock = LocalClock(engine.now)
        issued = []
        for offset, key in enumerate(chunk):
            self.stats.lookup_nb += 1
            clock.timeout(self.costs.lookup_nb_issue)
            issued.append((self._query(core_id, table, key, addrs[offset],
                                       line_base + offset * 8),
                           clock.now))
        results = self.distributor.serve_local(issued)
        last = max(result.completed_at for result in results)
        # A poll on the last completion's cycle reads the line before the
        # reply lands (its wake comes later in that cycle), so the loop
        # exits at the first poll strictly after it.
        run_local(self._poll(clock, lambda: clock.now > last))
        yield engine.timeout(clock.now - engine.now)
        return results

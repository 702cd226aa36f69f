"""The query distributor (paper §4.3).

Lives in the on-chip interconnect.  It hashes each query's *table address*
(reusing the same distribution logic the CPU already uses for LLC line
interleaving) to pick the serving accelerator, and it honours per-accelerator
busy bits: while an accelerator's scoreboard is saturated, the distributor
holds that accelerator's queries in a FIFO instead of dispatching them.

The hop to the accelerator is a stage program over a clock, like the
accelerator's stages (:mod:`repro.core.accelerator`): :meth:`dispatch`
yields it on the engine, and :meth:`serve_local` runs it, and the
queries it routes, on a local clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Sequence, Tuple

from ..obs import NULL_SPAN
from ..sim.engine import Engine, Process
from ..sim.hierarchy import MemoryHierarchy
from .accelerator import HaloAccelerator, LocalClock, run_local
from .query import LookupQuery, QueryResult


@dataclass
class DistributorStats:
    dispatched: int = 0
    held_for_busy: int = 0
    per_slice: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat scalar view for the metrics registry (pull source)."""
        return {"dispatched": self.dispatched,
                "held_for_busy": self.held_for_busy,
                "slices_active": len(self.per_slice)}


class QueryDistributor:
    """Routes queries from cores to per-slice accelerators."""

    def __init__(self, engine: Engine, hierarchy: MemoryHierarchy,
                 accelerators: List[HaloAccelerator]) -> None:
        self.engine = engine
        self.hierarchy = hierarchy
        self.accelerators = accelerators
        self.stats = DistributorStats()
        self.obs = hierarchy.obs
        registry = self.obs.metrics
        #: End-to-end query latency (issue to reply), the Figure 10 quantity.
        self._m_latency = registry.histogram("halo.query.latency_cycles")
        registry.register_source("halo.distributor", self.stats.as_dict)

    def target_slice(self, query: LookupQuery) -> int:
        return self.hierarchy.interconnect.slice_of_table(query.table_addr)

    def accelerator_for(self, table) -> HaloAccelerator:
        """The accelerator that serves queries to ``table``."""
        return self.accelerators[
            self.hierarchy.interconnect.slice_of_table(table.table_addr)]

    def dispatch(self, query: LookupQuery) -> Process:
        """Send a query on its way; returns the serving DES process.

        The returned :class:`Process` triggers with the
        :class:`~repro.core.query.QueryResult` when the lookup completes,
        so callers can ``yield`` it (blocking mode) or collect it later
        (non-blocking mode).
        """
        accelerator = self._route(query, self.engine.now)
        return self.engine.process(
            self._deliver(query, accelerator),
            name=f"query{query.query_id}->acc{accelerator.slice_id}")

    def serve_local(self, issued: Sequence[Tuple[LookupQuery, float]]
                    ) -> List[QueryResult]:
        """Route and serve queries to one table as a plain call.

        ``issued`` pairs each query with the cycle its core issues it, in
        issue order.  The caller has checked that the engine is otherwise
        idle and that the target accelerator
        :meth:`~repro.core.accelerator.HaloAccelerator.can_fuse` them.
        Returns the results in issue order, each reply applied at its
        completion cycle and in completion order.
        """
        clock = LocalClock()
        arrivals = []
        for query, now in issued:
            accelerator = self._route(query, now)
            clock.now = now
            run_local(self._hop(query, accelerator, clock))
            arrivals.append((query, clock.now))
        results: List[QueryResult] = [None] * len(arrivals)
        for index, result in accelerator.serve_local(arrivals):
            self._reply(result)
            results[index] = result
        return results

    def _route(self, query: LookupQuery, now: float) -> HaloAccelerator:
        """Stamp, count and open the trace of a query issued at ``now``;
        returns its accelerator."""
        query.issued_at = now
        slice_id = self.target_slice(query)
        self.stats.dispatched += 1
        self.stats.per_slice[slice_id] = self.stats.per_slice.get(slice_id, 0) + 1
        query.span = self.obs.trace.root(
            "query", now, query_id=query.query_id,
            core=query.core_id, slice=slice_id,
            table=getattr(query.table, "name", "?"))
        return self.accelerators[slice_id]

    def _hop(self, query: LookupQuery, accelerator: HaloAccelerator,
             clock) -> Generator:
        """Stage program: core -> ring -> distributor -> accelerator
        ingress."""
        span = query.span if query.span is not None else NULL_SPAN
        transfer = self.hierarchy.interconnect.transfer_latency(
            self.hierarchy.core_stop(query.core_id), accelerator.slice_id)
        stage = span.child("distributor.dispatch", clock.now,
                           transfer_cycles=transfer)
        yield clock.timeout(self.hierarchy.latency.dispatch + transfer)
        if accelerator.busy:
            # The accelerator's busy bit is raised: the distributor holds
            # the query until a scoreboard slot frees (paper §4.3).
            self.stats.held_for_busy += 1
            stage.note(held_for_busy=True)
        stage.finish(clock.now)

    def _reply(self, result: QueryResult) -> None:
        """The reply reaching the core at the query's completion."""
        span = result.query.span if result.query.span is not None \
            else NULL_SPAN
        self._m_latency.observe(result.latency)
        span.note(found=result.found)
        span.finish(result.completed_at)

    def _deliver(self, query: LookupQuery,
                 accelerator: HaloAccelerator) -> Generator:
        yield from self._hop(query, accelerator, self.engine)
        result: QueryResult = yield self.engine.process(
            accelerator.serve(query))
        self._reply(result)
        return result

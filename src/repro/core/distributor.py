"""The query distributor (paper §4.3).

Lives in the on-chip interconnect.  It hashes each query's *table address*
(reusing the same distribution logic the CPU already uses for LLC line
interleaving) to pick the serving accelerator, and it honours per-accelerator
busy bits: while an accelerator's scoreboard is saturated, the distributor
holds that accelerator's queries in a FIFO instead of dispatching them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List

from ..obs import NULL_SPAN
from ..sim.engine import Engine, Process
from ..sim.hierarchy import MemoryHierarchy
from .accelerator import HaloAccelerator
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

    def dispatch(self, query: LookupQuery) -> Process:
        """Send a query on its way; returns the serving DES process.

        The returned :class:`Process` triggers with the
        :class:`~repro.core.query.QueryResult` when the lookup completes,
        so callers can ``yield`` it (blocking mode) or collect it later
        (non-blocking mode).
        """
        query.issued_at = self.engine.now
        slice_id = self.target_slice(query)
        accelerator = self.accelerators[slice_id]
        self.stats.dispatched += 1
        self.stats.per_slice[slice_id] = self.stats.per_slice.get(slice_id, 0) + 1
        query.span = self.obs.trace.root(
            "query", self.engine.now, query_id=query.query_id,
            core=query.core_id, slice=slice_id,
            table=getattr(query.table, "name", "?"))
        return self.engine.process(
            self._deliver(query, accelerator),
            name=f"query{query.query_id}->acc{slice_id}")

    def _deliver(self, query: LookupQuery,
                 accelerator: HaloAccelerator) -> Generator:
        span = query.span if query.span is not None else NULL_SPAN
        # Core -> ring -> distributor -> accelerator ingress.
        transfer = self.hierarchy.interconnect.transfer_latency(
            self.hierarchy.core_stop(query.core_id), accelerator.slice_id)
        stage = span.child("distributor.dispatch", self.engine.now,
                           transfer_cycles=transfer)
        yield self.engine.timeout(self.hierarchy.latency.dispatch + transfer)
        if accelerator.busy:
            # The accelerator's busy bit is raised: the distributor holds
            # the query until a scoreboard slot frees (paper §4.3).
            self.stats.held_for_busy += 1
            stage.note(held_for_busy=True)
        stage.finish(self.engine.now)
        result: QueryResult = yield self.engine.process(
            accelerator.serve(query))
        self._m_latency.observe(self.engine.now - query.issued_at)
        span.note(found=result.found)
        span.finish(self.engine.now)
        return result

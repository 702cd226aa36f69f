"""Software baseline executor: DPDK-style lookups on a simulated core.

Wraps a traced hash table and a :class:`~repro.sim.core.CoreModel` so the
software path and the HALO path can be compared on identical machines,
tables, and key streams.  Includes the optimistic-locking read-side overhead
the paper measures at 13.1% of execution time (§3.4).

Trace capture routes through the issuing core's tracer (see
:class:`~repro.sim.trace.CoreTracerRouter`), so several software engines on
different cores can interleave on one shared engine without clobbering each
other's in-flight traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Tuple

from ..hashtable.locking import READ_SIDE_CYCLES
from ..sim.core import CoreModel, ExecutionResult
from ..sim.hierarchy import MemoryHierarchy
from ..sim.stats import Breakdown, RunningStats
from ..sim.trace import Tracer, capture


@dataclass
class SoftwareRunStats:
    lookups: int = 0
    hits: int = 0
    cycles: RunningStats = field(default_factory=RunningStats)
    breakdown: Breakdown = field(default_factory=Breakdown)


class SoftwareLookupEngine:
    """Executes traced table operations on one simulated core."""

    def __init__(self, hierarchy: MemoryHierarchy, core_id: int = 0,
                 with_locking: bool = True) -> None:
        self.hierarchy = hierarchy
        self.core = CoreModel(core_id, hierarchy)
        self.with_locking = with_locking
        self.stats = SoftwareRunStats()

    def lookup(self, table, key: bytes,
               key_addr: Optional[int] = None) -> Tuple[Any, ExecutionResult]:
        """One software lookup; returns (value, execution result)."""
        tracer = self.table_tracer(table)
        value, trace = capture(tracer, self.core.core_id,
                               table.lookup, key, key_addr=key_addr)
        lock_cycles = READ_SIDE_CYCLES if self.with_locking else 0.0
        result = self.core.execute(trace, lock_cycles=lock_cycles)
        self.stats.lookups += 1
        if value is not None:
            self.stats.hits += 1
        self.stats.cycles.record(result.cycles)
        self.stats.breakdown = self.stats.breakdown.merged(result.breakdown)
        return value, result

    def capture_lookups(self, table,
                        keys: Iterable[bytes]) -> Tuple[list, list]:
        """Functionally run a key stream, capturing one trace per lookup.

        Pure capture — nothing is priced and no stats are recorded; pair
        with :meth:`record_lookups` once the traces have been replayed
        (:class:`~repro.sim.replay.TraceReplay`).  Table
        lookups are functional reads, so running them all before pricing
        leaves the simulated cache state untouched.
        """
        tracer = self.table_tracer(table)
        values: list = []
        traces: list = []
        push_value = values.append
        push_trace = traces.append
        lookup = table.lookup
        token = tracer.activate(self.core.core_id)
        # Bracket the recording on the core's own tracer directly; the
        # table's internal loads still route through ``table.tracer``.
        # One ``begin`` up front — ``take`` already resets the tracer, so
        # re-beginning per key would just allocate a throwaway trace.
        recorder = tracer.tracer_for(self.core.core_id)
        take = recorder.take
        # Capture fast path: point ``table.tracer`` straight at this
        # core's recorder for the duration of the bracket, skipping the
        # per-op router delegation hop.  The router stays activated, so
        # the recording is identical either way; tables whose ``tracer``
        # is not assignable simply keep routing through it.
        saved_tracer = table.tracer
        swapped = False
        try:
            table.tracer = recorder
            swapped = True
        except AttributeError:
            pass
        try:
            recorder.begin()
            for key in keys:
                push_value(lookup(key))
                push_trace(take())
        finally:
            if swapped:
                table.tracer = saved_tracer
            tracer.restore(token)
        return values, traces

    def record_lookups(self, values: list, results: list) -> None:
        """Fold a priced batch into the run stats in one pass.

        Float math is the same left-fold :meth:`lookup` performs per
        lookup (the Welford stream sees each cycle count in order, the
        breakdown parts accumulate left to right), so a replayed stream's
        stats equal the serial run's exactly.
        """
        stats = self.stats
        parts = dict(stats.breakdown.parts)
        parts_get = parts.get
        hits = 0
        # Welford fold inlined on locals — identical op sequence to
        # RunningStats.record, written back once at the end.
        cycle_stats = stats.cycles
        count = cycle_stats.count
        mean = cycle_stats.mean
        m2 = cycle_stats._m2
        minimum = cycle_stats.minimum
        maximum = cycle_stats.maximum
        for value, result in zip(values, results):
            if value is not None:
                hits += 1
            cycles = result.cycles
            count += 1
            delta = cycles - mean
            mean += delta / count
            m2 += delta * (cycles - mean)
            minimum = min(minimum, cycles)
            maximum = max(maximum, cycles)
            for name, amount in result.breakdown.parts.items():
                parts[name] = parts_get(name, 0.0) + amount
        cycle_stats.count = count
        cycle_stats.mean = mean
        cycle_stats._m2 = m2
        cycle_stats.minimum = minimum
        cycle_stats.maximum = maximum
        stats.lookups += len(results)
        stats.hits += hits
        stats.breakdown = Breakdown(parts)

    def lookup_stream(self, table, keys: Iterable[bytes]) -> SoftwareRunStats:
        """Run a key stream; returns the accumulated statistics."""
        for key in keys:
            self.lookup(table, key)
        return self.stats

    def lookup_bulk(self, table, keys: Iterable[bytes],
                    batch: int = 8) -> Tuple[list, float]:
        """DPDK ``rte_hash_lookup_bulk``: prefetch-pipelined batches.

        Same-stage memory accesses across the batch overlap up to the
        core's MLP, the classic software mitigation HALO competes with.
        Returns (values, total cycles).
        """
        keys = list(keys)
        tracer = self.table_tracer(table)
        values = []
        total_cycles = 0.0
        lock_cycles = READ_SIDE_CYCLES if self.with_locking else 0.0
        for start in range(0, len(keys), batch):
            chunk = keys[start:start + batch]
            traces = []
            token = tracer.activate(self.core.core_id)
            try:
                for key in chunk:
                    tracer.begin()
                    values.append(table.lookup(key))
                    traces.append(tracer.take())
            finally:
                tracer.restore(token)
            result = self.core.execute_prefetch_batch(
                traces, lock_cycles_each=lock_cycles)
            total_cycles += result.cycles
            self.stats.lookups += len(chunk)
            # Amortise the batch cost across its lookups so per-lookup
            # statistics (mean_cycles_per_lookup) stay meaningful after
            # bulk runs, with count matching ``stats.lookups``.
            per_lookup = result.cycles / len(chunk)
            for _ in chunk:
                self.stats.cycles.record(per_lookup)
            self.stats.breakdown = self.stats.breakdown.merged(
                result.breakdown)
        self.stats.hits += sum(1 for value in values if value is not None)
        return values, total_cycles

    @staticmethod
    def table_tracer(table) -> Tracer:
        tracer = table.tracer
        if not isinstance(tracer, Tracer) or not tracer.enabled:
            raise ValueError(
                "software execution needs a table built with an enabled Tracer")
        return tracer

    def insert(self, table, key: bytes, value: Any) -> ExecutionResult:
        tracer = self.table_tracer(table)
        _ok, trace = capture(tracer, self.core.core_id,
                             table.insert, key, value)
        lock_cycles = (table.lock.write_overhead_cycles()
                       if self.with_locking else 0.0)
        return self.core.execute(trace, lock_cycles=lock_cycles)

    @property
    def mean_cycles_per_lookup(self) -> float:
        return self.stats.cycles.mean

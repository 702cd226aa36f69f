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

from typing import Any, Iterable, Optional, Tuple

from ..hashtable.locking import READ_SIDE_CYCLES
from ..sim.core import CoreModel, ExecutionResult
from ..sim.hierarchy import MemoryHierarchy
from ..sim.trace import NullTracer, Tracer, capture


class SoftwareLookupEngine:
    """Executes traced table operations on one simulated core."""

    def __init__(self, hierarchy: MemoryHierarchy, core_id: int = 0,
                 with_locking: bool = True) -> None:
        self.hierarchy = hierarchy
        self.core = CoreModel(core_id, hierarchy)
        self.with_locking = with_locking

    def lookup(self, table, key: bytes,
               key_addr: Optional[int] = None) -> Tuple[Any, ExecutionResult]:
        """One software lookup; returns (value, execution result)."""
        tracer = self.table_tracer(table)
        value, trace = capture(tracer, self.core.core_id,
                               table.lookup, key, key_addr=key_addr)
        lock_cycles = READ_SIDE_CYCLES if self.with_locking else 0.0
        return value, self.core.execute(trace, lock_cycles=lock_cycles)

    def capture_lookups(self, table,
                        keys: Iterable[bytes]) -> Tuple[list, list]:
        """Functionally run a key stream, capturing one trace per lookup.

        Pure capture — nothing is priced; the traces are replayed by
        :class:`~repro.sim.replay.TraceReplay`.  Table lookups are
        functional reads, so running them all before pricing leaves the
        simulated cache state untouched.
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
        return values, total_cycles

    @staticmethod
    def table_tracer(table) -> Tracer:
        # Not ``tracer.enabled``: an idle router is disabled until the
        # capture this check precedes opens.
        tracer = table.tracer
        if not isinstance(tracer, Tracer) or isinstance(tracer, NullTracer):
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

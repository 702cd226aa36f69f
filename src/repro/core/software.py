"""Software baseline executor: DPDK-style lookups on a simulated core.

Wraps a traced hash table and a :class:`~repro.sim.core.CoreModel` so the
software path and the HALO path can be compared on identical machines,
tables, and key streams.  Includes the optimistic-locking read-side overhead
the paper measures at 13.1% of execution time (§3.4).

Every operation records on the table's tracer and closes the recording
before it returns (:func:`~repro.sim.trace.capture`), so several software
engines on different cores can share one tracer on one engine: no two
recordings are ever open at once.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from ..hashtable.locking import READ_SIDE_CYCLES
from ..sim.core import CoreModel, ExecutionResult
from ..sim.hierarchy import MemoryHierarchy
from ..sim.trace import capture


class SoftwareLookupEngine:
    """Executes traced table operations on one simulated core.

    Lookups charge the read-side lock overhead (``READ_SIDE_CYCLES``),
    inserts the table's write overhead.
    """

    def __init__(self, hierarchy: MemoryHierarchy, core_id: int = 0) -> None:
        self.hierarchy = hierarchy
        self.core = CoreModel(core_id, hierarchy)

    def lookup(self, table, key: bytes,
               key_addr: Optional[int] = None) -> Tuple[Any, ExecutionResult]:
        """One software lookup; returns (value, execution result)."""
        value, trace = capture(table.tracer, table.lookup, key,
                               key_addr=key_addr)
        return value, self.core.execute(trace, lock_cycles=READ_SIDE_CYCLES)

    def capture_lookups(self, table,
                        keys: Iterable[bytes]) -> Tuple[list, list]:
        """Functionally run a key stream, capturing one trace per lookup.

        Pure capture — nothing is priced; the traces are replayed by
        :class:`~repro.sim.replay.TraceReplay`.  Table lookups are
        functional reads, so running them all before pricing leaves the
        simulated cache state untouched.
        """
        tracer = table.tracer
        begin = tracer.begin
        take = tracer.take
        lookup = table.lookup
        values: list = []
        traces: list = []
        push_value = values.append
        push_trace = traces.append
        # ``begin``/``take`` inline rather than a ``capture`` per key: one
        # call level less per lookup on the stream hot path.
        try:
            for key in keys:
                begin()
                push_value(lookup(key))
                push_trace(take())
        finally:
            # Closes the recording a raising lookup left open.
            take()
        return values, traces

    def lookup_bulk(self, table, keys: Iterable[bytes],
                    batch: int = 8) -> Tuple[list, float]:
        """DPDK ``rte_hash_lookup_bulk``: prefetch-pipelined batches.

        Same-stage memory accesses across the batch overlap up to the
        core's MLP, the classic software mitigation HALO competes with.
        Returns (values, total cycles).
        """
        keys = list(keys)
        values = []
        total_cycles = 0.0
        for start in range(0, len(keys), batch):
            traces = []
            for key in keys[start:start + batch]:
                value, trace = capture(table.tracer, table.lookup, key)
                values.append(value)
                traces.append(trace)
            result = self.core.execute_prefetch_batch(
                traces, lock_cycles_each=READ_SIDE_CYCLES)
            total_cycles += result.cycles
        return values, total_cycles

    def insert(self, table, key: bytes,
               value: Any) -> Tuple[bool, ExecutionResult]:
        """One software insert; returns (the insert's result, execution
        result)."""
        ok, trace = capture(table.tracer, table.insert, key, value)
        return ok, self.core.execute(
            trace, lock_cycles=table.lock.write_overhead_cycles())

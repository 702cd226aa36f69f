"""Out-of-order core cost model.

Replays a :class:`~repro.sim.trace.MemTrace` — the memory operations plus the
instruction mix of one functional operation — against the memory hierarchy
and produces a cycle cost with a compute/memory/locking breakdown.

Modelling choices (approximate cycle level, see DESIGN.md §5):

* Non-memory instructions retire at ``base_cpi`` (OoO issue width folded in).
* Memory operations are organised in *dependency chains* (see
  :class:`~repro.sim.trace.MemOp`); groups within a chain overlap up to the
  core's memory-level parallelism (MSHR limit), consecutive groups serialise
  (pointer chases).
* L1 hits are considered hidden by the OoO window (they overlap compute);
  only the portion of each access beyond the L1 hit latency counts as stall.

There is one pricing path, :meth:`CoreModel.execute_window`:
:meth:`~CoreModel.execute` prices a one-trace window and
:meth:`~CoreModel.execute_batch` an unbounded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List

from .hierarchy import MemoryHierarchy
from .params import CoreParams
from .stats import Breakdown
from .trace import MemOpKind, MemTrace

#: ``MemOp.dep`` by index (``MemOp`` is a NamedTuple: 0=addr, 2=kind, 3=dep).
_dep_of = itemgetter(3)


def _stall_cycles(latencies: List[int], mlp: int, l1_hit: int) -> float:
    """Stall cycles of one dependency group.

    The group's accesses overlap in waves of ``mlp``; each wave stalls for
    its longest access beyond what the OoO window hides (an L1 hit).
    """
    latencies.sort(reverse=True)
    cycles = 0.0
    for start in range(0, len(latencies), mlp):
        exposed = latencies[start] - l1_hit
        if exposed > 0:
            cycles += exposed
    return cycles


@dataclass
class ExecutionResult:
    """Cycle cost of replaying one traced operation on a core."""

    cycles: float
    breakdown: Breakdown
    level_counts: Dict[str, int] = field(default_factory=dict)
    loads: int = 0
    stores: int = 0
    instructions: int = 0

    @property
    def compute_cycles(self) -> float:
        return self.breakdown["compute"]

    @property
    def memory_cycles(self) -> float:
        return self.breakdown["memory"]


class CoreModel:
    """Cost model for one core executing traced operations."""

    def __init__(self, core_id: int, hierarchy: MemoryHierarchy,
                 params: CoreParams = None) -> None:
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.params = params or hierarchy.machine.core
        self.retired_instructions = 0
        self.retired_loads = 0
        self.total_cycles = 0.0
        #: The hierarchy's access closure for this core, built on first use.
        self._access = None

    def execute(self, trace: MemTrace,
                lock_cycles: float = 0.0) -> ExecutionResult:
        """Replay ``trace`` from this core; returns the cycle cost.

        The cost is ``max(front-end floor, exposed compute + memory stalls
        + lock overhead)``: the out-of-order window hides most compute behind
        memory and neighbouring instructions (``compute_overlap``), but the
        core can never retire faster than ``issue_width`` instructions/cycle.
        A one-trace :meth:`execute_window`.
        """
        return self.execute_window((trace,), 0, None, lock_cycles)[0][0]

    def execute_batch(self, traces,
                      lock_cycles_each: float = 0.0) -> List[ExecutionResult]:
        """Replay many traces back to back: an unbounded
        :meth:`execute_window`."""
        if not isinstance(traces, (list, tuple)):
            traces = list(traces)
        return self.execute_window(traces, 0, None, lock_cycles_each)[0]

    def execute_window(self, traces, start: int = 0, budget=None,
                       lock_cycles_each: float = 0.0):
        """Price ``traces[start:]`` in order until ``budget`` cycles are spent.

        The accesses hit the hierarchy trace by trace and op by op, so
        cache state — and therefore every latency — evolves exactly as it
        would one :meth:`execute` at a time.  The per-access metric pushes
        are aggregated and flushed once through
        :meth:`~repro.sim.hierarchy.MemoryHierarchy.observe_core_accesses`,
        which leaves the registry as the pushes would.

        Windowed replay (:mod:`repro.sim.replay`) passes the cycles up to
        the engine's next pending event as ``budget``: pricing stops once
        the cumulative cost reaches it, the crossing trace included, which
        is exactly where a per-trace hop would first yield to that event.
        At least one trace is always priced; ``budget=None`` prices all.

        Returns ``(results, total_cycles, next_index)``.
        """
        access = self._access
        if access is None:
            access = self._access = self.hierarchy.core_accessor(self.core_id)
        params = self.params
        mlp = params.mlp
        l1_hit = self.hierarchy.latency.l1_hit
        store_kind = MemOpKind.STORE
        latency_counts: Dict[int, int] = {}
        latency_get = latency_counts.get
        window_levels: Dict[str, int] = {}
        window_get = window_levels.get
        lock_retries = 0
        results: List[ExecutionResult] = []
        total = 0.0
        index = start
        count = len(traces)
        while index < count:
            if results and budget is not None and total >= budget:
                break
            trace = traces[index]
            index += 1
            ops = trace.ops
            prev_dep = 0
            for op in ops:
                if op[3] < prev_dep:
                    # Hand-built traces may interleave their dependency
                    # groups: issue them group by group, in op order.
                    ops = sorted(ops, key=_dep_of)
                    break
                prev_dep = op[3]
            memory_cycles = 0.0
            level_counts: Dict[str, int] = {}
            level_get = level_counts.get
            stores = 0
            latencies: List[int] = []
            group = ops[0][3] if ops else 0
            for op in ops:
                if op[3] != group:
                    memory_cycles += _stall_cycles(latencies, mlp, l1_hit)
                    latencies = []
                    group = op[3]
                write = op[2] is store_kind
                latency, level, retries = access(op[0], write)
                latencies.append(latency)
                latency_counts[latency] = latency_get(latency, 0) + 1
                level_counts[level] = level_get(level, 0) + 1
                window_levels[level] = window_get(level, 0) + 1
                lock_retries += retries
                stores += write
            if latencies:
                memory_cycles += _stall_cycles(latencies, mlp, l1_hit)

            mix_total = trace.mix.total
            compute_cycles = (mix_total * params.base_cpi
                              * params.compute_overlap)
            cycles = compute_cycles + memory_cycles
            parts = {"compute": compute_cycles, "memory": memory_cycles}
            if lock_cycles_each:
                parts["locking"] = lock_cycles_each
                cycles += lock_cycles_each
            front_end_floor = mix_total / params.issue_width
            if cycles < front_end_floor:
                # Front-end bound (small/L1-resident working sets): the
                # issue width limits throughput; the gap is compute.
                parts["compute"] = compute_cycles + (front_end_floor - cycles)
                cycles = front_end_floor
            loads = len(ops) - stores
            self.retired_instructions += mix_total
            self.retired_loads += loads
            self.total_cycles += cycles
            total += cycles
            results.append(ExecutionResult(
                cycles=cycles, breakdown=Breakdown(parts),
                level_counts=level_counts, loads=loads, stores=stores,
                instructions=mix_total))
        self.hierarchy.observe_core_accesses(latency_counts, window_levels,
                                             lock_retries)
        return results, total, index

    def execute_prefetch_batch(self, traces,
                               lock_cycles_each: float = 0.0
                               ) -> ExecutionResult:
        """Replay a batch with DPDK-style software prefetching.

        ``rte_hash_lookup_bulk`` issues prefetches for every key's buckets
        before any comparison, so the *same-stage* accesses of different
        lookups overlap (bounded by the MSHRs), while each lookup's own
        pointer chase stays serialised.  The result is the aggregate cost
        of the whole batch.
        """
        traces = list(traces)
        if not traces:
            return ExecutionResult(0.0, Breakdown())
        mlp = self.params.mlp
        l1_hit = self.hierarchy.latency.l1_hit

        total_mix_instructions = 0
        compute_cycles = 0.0
        loads = stores = 0
        level_counts: Dict[str, int] = {}
        # stage -> list of access latencies across the whole batch
        stage_latencies: Dict[int, List[int]] = {}
        for trace in traces:
            mix = trace.mix
            total_mix_instructions += mix.total
            compute_cycles += (mix.total * self.params.base_cpi
                               * self.params.compute_overlap)
            for stage, group in enumerate(trace.dependency_chains()):
                bucket = stage_latencies.setdefault(stage, [])
                for op in group:
                    result = self.hierarchy.core_access(
                        self.core_id, op.addr, write=op.is_store)
                    bucket.append(result.latency)
                    level_counts[result.level] = (
                        level_counts.get(result.level, 0) + 1)
                    if op.is_store:
                        stores += 1
                    else:
                        loads += 1

        memory_cycles = 0.0
        for stage in sorted(stage_latencies):
            memory_cycles += _stall_cycles(stage_latencies[stage], mlp, l1_hit)

        breakdown = Breakdown({"compute": compute_cycles,
                               "memory": memory_cycles})
        if lock_cycles_each:
            breakdown.add("locking", lock_cycles_each * len(traces))
        total = breakdown.total
        floor = total_mix_instructions / self.params.issue_width
        if total < floor:
            breakdown.add("compute", floor - total)
            total = floor
        self.retired_instructions += total_mix_instructions
        self.retired_loads += loads
        self.total_cycles += total
        return ExecutionResult(cycles=total, breakdown=breakdown,
                               level_counts=level_counts, loads=loads,
                               stores=stores,
                               instructions=total_mix_instructions)

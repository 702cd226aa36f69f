"""Window pricing: the one pricing path against an independent oracle.

``CoreModel.execute_window`` prices every trace: ``execute`` is a
one-trace window and ``execute_batch`` an unbounded one.  Every trace
must match the cost model's formula written out plainly over the
instrumented ``MemoryHierarchy.core_access``, and the deferred metric
flush must leave the registry as per-access pushes do.  Batch-vs-serial
parity lives in ``test_batch_kernels.py``, whose hand-built traces this
suite reuses.
"""

from __future__ import annotations

import pytest

from repro.sim import CoreModel, MemoryHierarchy, SKYLAKE_SP_16C

from .test_batch_kernels import _mixed_traces


def _reference(hierarchy, params, trace, lock_cycles):
    """The cost model's formula, plainly: ``(cycles, level_counts, stores)``.

    Groups issue in dependency order through the instrumented
    ``core_access``; a group's accesses overlap in waves of ``mlp``, and
    each wave stalls for its longest access beyond an L1 hit.
    """
    l1_hit = hierarchy.latency.l1_hit
    memory = 0.0
    levels = {}
    stores = 0
    for group in trace.dependency_chains():
        latencies = []
        for op in group:
            access = hierarchy.core_access(0, op.addr, write=op.is_store)
            latencies.append(access.latency)
            levels[access.level] = levels.get(access.level, 0) + 1
            stores += op.is_store
        latencies.sort(reverse=True)
        memory += sum(max(0, latency - l1_hit)
                      for latency in latencies[::params.mlp])
    instructions = trace.mix.total
    compute = instructions * params.base_cpi * params.compute_overlap
    cycles = max(compute + memory + lock_cycles,
                 instructions / params.issue_width)
    return cycles, levels, stores


@pytest.mark.parametrize("lock_cycles", [0.0, 23.0])
def test_pricing_matches_reference_oracle(lock_cycles):
    core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    oracle = MemoryHierarchy(SKYLAKE_SP_16C)
    for trace in _mixed_traces() * 2:  # the second pass prices warm caches
        cycles, levels, stores = _reference(oracle, core.params, trace,
                                            lock_cycles)
        result = core.execute(trace, lock_cycles=lock_cycles)
        assert result.cycles == cycles
        assert result.level_counts == levels
        assert (result.stores, result.loads) == (stores,
                                                 len(trace.ops) - stores)
    # Deferred observation leaves the registry as per-access pushes do.
    assert (core.hierarchy.obs.metrics.snapshot()
            == oracle.obs.metrics.snapshot())

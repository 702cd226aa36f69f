"""Out-of-order core cost model."""

import pytest

from repro.sim import CoreModel, InstructionMix, MemOp, MemOpKind, MemTrace


def trace_with(mix=None, ops=()):
    trace = MemTrace(ops, mix or InstructionMix())
    return trace


def test_front_end_floor_applies(hierarchy):
    core = CoreModel(0, hierarchy)
    mix = InstructionMix(loads=0, stores=0, arithmetic=100, others=100)
    result = core.execute(trace_with(mix))
    assert result.cycles == pytest.approx(
        200 / hierarchy.machine.core.issue_width)


def test_memory_chain_serialises(hierarchy):
    core = CoreModel(0, hierarchy)
    # Three dependent cold accesses: each goes to DRAM, fully serialised.
    ops = [MemOp(0x10000 + i * 4096, dep=i) for i in range(3)]
    result = core.execute(trace_with(ops=ops))
    assert result.cycles >= 3 * (hierarchy.latency.dram
                                 - hierarchy.latency.l1_hit)


def test_independent_accesses_overlap(hierarchy):
    core = CoreModel(0, hierarchy)
    dependent = [MemOp(0x20000 + i * 4096, dep=i) for i in range(4)]
    serial = core.execute(trace_with(ops=dependent)).cycles
    hierarchy_2 = type(hierarchy)(hierarchy.machine)
    core2 = CoreModel(0, hierarchy_2)
    independent = [MemOp(0x20000 + i * 4096, dep=0) for i in range(4)]
    parallel = core2.execute(trace_with(ops=independent)).cycles
    assert parallel < serial / 2


def test_mlp_limits_overlap(hierarchy):
    core = CoreModel(0, hierarchy)
    # 8 independent cold accesses with MLP 4 need two waves.
    ops = [MemOp(0x30000 + i * 4096, dep=0) for i in range(8)]
    result = core.execute(trace_with(ops=ops))
    one_wave = hierarchy.latency.dram - hierarchy.latency.l1_hit
    assert result.cycles >= 2 * one_wave * 0.9


def test_l1_hits_are_hidden(hierarchy):
    core = CoreModel(0, hierarchy)
    addr = 0x40000
    hierarchy.core_access(0, addr)   # warm L1
    result = core.execute(trace_with(ops=[MemOp(addr, dep=0)]))
    assert result.breakdown["memory"] == 0.0


def test_lock_cycles_added(hierarchy):
    core = CoreModel(0, hierarchy)
    mix = InstructionMix(arithmetic=400)
    with_lock = core.execute(trace_with(mix), lock_cycles=23)
    assert with_lock.breakdown["locking"] == 23


def test_level_counts_recorded(hierarchy):
    core = CoreModel(0, hierarchy)
    result = core.execute(trace_with(ops=[MemOp(0x50000, dep=0)]))
    assert result.level_counts.get("DRAM") == 1


def test_store_op_counted(hierarchy):
    core = CoreModel(0, hierarchy)
    ops = [MemOp(0x60000, kind=MemOpKind.STORE, dep=0)]
    result = core.execute(trace_with(ops=ops))
    assert result.stores == 1
    assert result.loads == 0


def test_retired_counters_accumulate(hierarchy):
    core = CoreModel(0, hierarchy)
    core.execute(trace_with(InstructionMix(loads=2, arithmetic=10),
                            ops=[MemOp(0x70000, dep=0)]))
    assert core.retired_instructions == 12
    assert core.retired_loads == 1
    assert core.total_cycles > 0

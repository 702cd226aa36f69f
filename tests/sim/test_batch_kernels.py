"""Batched trace pricing: result-for-result parity with the serial path.

A batch priced by :class:`~repro.sim.core.CoreModel` must produce
*exactly* the numbers one ``execute`` at a time produces — same cycles,
same breakdown parts, same level counts, same core counters and metrics —
whichever way the batch reaches the one pricer,
:meth:`~repro.sim.core.CoreModel.execute_window` (see ``PRICING_PATHS``).
These tests pin that equality on hand-built traces covering the
interesting geometries (chains, MLP-bounded waves, stores, compute-only
traces, L1-resident reruns, interleaved dependency groups).  The pricer
is checked against the cost formula itself in ``test_window_pricing.py``.
"""

from __future__ import annotations

import pytest

from repro.sim import (CoreModel, InstructionMix, MemOp, MemOpKind,
                       MemoryHierarchy, MemTrace, SKYLAKE_SP_16C)

#: The two ways a batch reaches the pricer: ``vector`` hands the whole
#: trace list to ``execute_batch`` (one unbounded window, as windowed
#: replay prices a stream on an idle engine); ``python`` walks it in a
#: Python loop of zero-budget ``execute_window`` calls, one trace per
#: window, as serial replay does.
PRICING_PATHS = ("vector", "python")


def _price(core, path, traces, lock_cycles=0.0):
    if path == "vector":
        return core.execute_batch(traces, lock_cycles_each=lock_cycles)
    results = []
    index = 0
    while True:
        window, _total, index = core.execute_window(traces, index, 0.0,
                                                    lock_cycles)
        assert len(window) == min(1, len(traces) - len(results))
        results.extend(window)
        if index >= len(traces):
            return results


def _mixed_traces():
    """A batch exercising every pricing shape the model distinguishes."""
    mix = InstructionMix(loads=4, arithmetic=30, others=6)
    return [
        # Pointer chase: three dependent cold accesses.
        MemTrace([MemOp(0x10000 + i * 4096, dep=i) for i in range(3)], mix),
        # Independent accesses overlapping up to the MLP.
        MemTrace([MemOp(0x80000 + i * 4096, dep=0) for i in range(8)], mix),
        # Store-heavy trace.
        MemTrace([MemOp(0x120000, kind=MemOpKind.STORE, dep=0),
                  MemOp(0x121000, kind=MemOpKind.STORE, dep=1)], mix),
        # Compute-only trace (front-end floor binds).
        MemTrace([], InstructionMix(arithmetic=100, others=100)),
        # Rerun of the first chase: now warm, L1 hits hidden.
        MemTrace([MemOp(0x10000 + i * 4096, dep=i) for i in range(3)], mix),
        # Mixed chain with a wide middle group.
        MemTrace([MemOp(0x200000, dep=0)]
                 + [MemOp(0x210000 + i * 4096, dep=1) for i in range(5)]
                 + [MemOp(0x220000, dep=2)], mix),
        # Hand-built trace interleaving its dependency groups.
        MemTrace([MemOp(0x300000, dep=1), MemOp(0x301000, dep=0),
                  MemOp(0x302000, kind=MemOpKind.STORE, dep=1),
                  MemOp(0x303000, dep=0)], mix),
    ]


def _assert_results_equal(serial, batched):
    assert len(serial) == len(batched)
    for index, (a, b) in enumerate(zip(serial, batched)):
        assert a.cycles == b.cycles, index
        assert dict(a.breakdown.parts) == dict(b.breakdown.parts), index
        assert a.level_counts == b.level_counts, index
        assert a.loads == b.loads, index
        assert a.stores == b.stores, index
        assert a.instructions == b.instructions, index


@pytest.mark.parametrize("path", PRICING_PATHS)
@pytest.mark.parametrize("lock_cycles", [0.0, 23.0])
def test_batch_matches_serial_exactly(path, lock_cycles):
    traces = _mixed_traces()
    serial_core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    serial = [serial_core.execute(trace, lock_cycles=lock_cycles)
              for trace in traces]
    batch_core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    batched = _price(batch_core, path, traces, lock_cycles)
    _assert_results_equal(serial, batched)
    # Core-level accumulators and the metrics registry agree bit for bit.
    assert batch_core.total_cycles == serial_core.total_cycles
    assert batch_core.retired_instructions == serial_core.retired_instructions
    assert batch_core.retired_loads == serial_core.retired_loads
    assert (batch_core.hierarchy.obs.metrics.snapshot()
            == serial_core.hierarchy.obs.metrics.snapshot())


@pytest.mark.parametrize("path", PRICING_PATHS)
def test_batch_evolves_cache_state_like_serial(path):
    """Accesses sweep the hierarchy in serial order, so a second batch
    over the same addresses sees the warm state the serial path would."""
    traces = _mixed_traces()
    core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    first = _price(core, path, traces)
    second = _price(core, path, traces)
    assert sum(r.cycles for r in second) < sum(r.cycles for r in first)
    serial_core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    for trace in traces:
        serial_core.execute(trace)
    serial_second = [serial_core.execute(trace) for trace in traces]
    _assert_results_equal(serial_second, second)


def test_vector_and_python_paths_agree():
    traces = _mixed_traces()
    vector_core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    vector = _price(vector_core, "vector", traces, lock_cycles=7.5)
    python_core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    python = _price(python_core, "python", traces, lock_cycles=7.5)
    _assert_results_equal(vector, python)
    assert vector_core.total_cycles == python_core.total_cycles


@pytest.mark.parametrize("path", PRICING_PATHS)
def test_empty_batch(path):
    core = CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))
    assert _price(core, path, []) == []
    assert core.total_cycles == 0.0

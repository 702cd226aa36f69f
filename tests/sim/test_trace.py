"""Memory-trace collection, instruction mixes and the tracer's recording
window: a ``Tracer`` records only between ``begin()`` and ``take()``, and
``capture`` is the one bracket around a functional call."""

import pytest

from repro.core import HaloSystem
from repro.hashtable import CuckooHashTable, SingleHashTable
from repro.sim import (
    InstructionMix,
    MemOp,
    MemOpKind,
    MemTrace,
    Tracer,
    capture,
)

from ..conftest import make_keys


def test_tracer_records_ops_in_groups():
    tracer = Tracer()
    tracer.begin()
    tracer.load(0x100)
    tracer.barrier()
    tracer.load(0x200)
    tracer.load(0x240)
    tracer.barrier()
    tracer.store(0x300)
    trace = tracer.take()
    chains = trace.dependency_chains()
    assert [len(chain) for chain in chains] == [1, 2, 1]
    assert chains[2][0].is_store


def test_take_resets_state():
    tracer = Tracer()
    tracer.begin()
    tracer.load(0x100)
    tracer.barrier()
    first = tracer.take()
    tracer.begin()
    tracer.load(0x200)
    trace = tracer.take()
    assert trace is not first
    assert len(first) == 1 and len(trace) == 1
    assert trace.ops[0].dep == 0


def test_tracer_counts_instructions():
    tracer = Tracer()
    tracer.begin()
    tracer.count(loads=10, stores=2, arithmetic=5, others=3)
    tracer.count(loads=1)
    trace = tracer.take()
    assert trace.mix.loads == 11
    assert trace.mix.total == 21


def test_mix_addition():
    mix = (InstructionMix(loads=76, stores=25, arithmetic=44, others=65)
           + InstructionMix(loads=1, others=2))
    assert mix == InstructionMix(loads=77, stores=25, arithmetic=44,
                                 others=67)
    assert mix.total == 213


def test_memop_defaults():
    op = MemOp(0x1000)
    assert op.kind is MemOpKind.LOAD
    assert not op.is_store
    assert op.size == 8


class CountingTracer(Tracer):
    """A tracer that counts the recording calls it receives."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def load(self, addr, size=8):
        self.calls += 1
        super().load(addr, size)

    def store(self, addr, size=8):
        self.calls += 1
        super().store(addr, size)

    def barrier(self):
        self.calls += 1
        super().barrier()

    def count(self, loads=0, stores=0, arithmetic=0, others=0):
        self.calls += 1
        super().count(loads, stores, arithmetic, others)

    def emit_trace(self, ops, dep_advance, mix):
        self.calls += 1
        super().emit_trace(ops, dep_advance, mix)


def _churn(table, keys):
    """Inserts with kicks, a delete and hit/miss lookups."""
    for index, key in enumerate(keys):
        assert table.insert(key, index)
    assert table.stats.kicks > 0
    assert table.delete(keys[0])
    for key in keys[1:50] + make_keys(5, seed=4):
        table.lookup(key)


class TestRecordingWindow:
    """Outside ``begin()``…``take()`` a tracer is disabled and data
    structures make no recording calls."""

    def test_new_tracer_is_disabled(self):
        assert not Tracer().enabled

    def test_build_outside_capture_makes_no_recording_calls(self):
        system = HaloSystem()
        system.tracer = tracer = CountingTracer()
        table = system.create_table(1024)
        keys = make_keys(600, seed=3)
        _churn(table, keys)
        assert not tracer.enabled
        assert tracer.calls == 0
        # A capture still records through the same tracer.
        value, trace = capture(tracer, table.lookup, keys[1])
        assert value == 1 and len(trace) > 0 and tracer.calls == 1
        assert not tracer.enabled

    def test_build_outside_capture_leaves_the_system_trace_empty(self):
        system = HaloSystem()
        table = system.create_table(1024)
        _churn(table, make_keys(600, seed=3))
        idle = system.tracer.trace
        assert len(idle) == 0 and idle.mix.total == 0

    def test_build_outside_capture_on_a_default_tracer(self, monkeypatch):
        from repro.hashtable import cuckoo

        monkeypatch.setattr(cuckoo, "Tracer", CountingTracer)
        table = CuckooHashTable(1024)
        tracer = table.tracer
        assert isinstance(tracer, CountingTracer)
        _churn(table, make_keys(600, seed=3))
        assert not tracer.enabled and tracer.calls == 0

    def test_default_tracers_are_fresh_and_record_their_table(self):
        first, second = CuckooHashTable(64), CuckooHashTable(64)
        assert isinstance(first.tracer, Tracer)
        assert first.tracer is not second.tracer
        assert not first.tracer.enabled
        key = make_keys(1, seed=5)[0]
        first.insert(key, 7)
        value, trace = capture(first.tracer, first.lookup, key)
        assert value == 7 and len(trace) > 0

    @pytest.mark.parametrize("kind", ["cuckoo", "sfh"])
    def test_scalar_build_on_a_fresh_tracer_records_nothing(self, kind):
        """Figure 4 builds both table kinds against a fresh tracer and
        opens its first recording only after the build."""
        tracer = CountingTracer()
        keys = make_keys(3000, seed=21)
        if kind == "cuckoo":
            table = CuckooHashTable(int(len(keys) / 0.90) + 8,
                                    tracer=tracer)
        else:
            table = SingleHashTable(len(keys), tracer=tracer)
        for index, key in enumerate(keys):
            table.insert(key, index)
        assert not tracer.enabled
        assert tracer.calls == 0
        tracer.begin()
        assert table.lookup(keys[7]) == 7
        assert len(tracer.take()) > 0

    def test_bare_begin_records_until_take(self):
        tracer = Tracer()
        tracer.begin()
        assert tracer.enabled
        tracer.load(0x40)
        tracer.count(loads=1)
        trace = tracer.take()
        assert not tracer.enabled
        assert [op.addr for op in trace] == [0x40]
        assert trace.mix.loads == 1
        tracer.take()
        assert not tracer.enabled              # a take with no begin

    def test_successive_captures_keep_separate_traces(self):
        tracer = Tracer()
        _, trace_a = capture(tracer, lambda: tracer.load(0xA))
        _, trace_b = capture(tracer, lambda: tracer.load(0xB))
        assert [op.addr for op in trace_a] == [0xA]
        assert [op.addr for op in trace_b] == [0xB]

    def test_capture_brackets_begin_and_take(self):
        tracer = Tracer()
        tracer.begin()
        tracer.load(0xDEAD)  # an op from an earlier recording
        tracer.take()
        value, trace = capture(tracer, lambda: tracer.load(0xBEEF) or 5)
        assert value == 5
        assert [op.addr for op in trace] == [0xBEEF]
        assert isinstance(trace, MemTrace)
        assert not tracer.enabled

    def test_capture_closes_its_recording_on_exception(self):
        tracer = Tracer()

        def boom():
            assert tracer.enabled
            tracer.load(0xC0)
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            capture(tracer, boom)
        assert not tracer.enabled

    def test_capture_lookups_closes_its_recording_on_exception(self):
        system = HaloSystem()
        table = system.create_table(64)
        engine = system.software_engine()
        with pytest.raises(ValueError, match="key length"):
            engine.capture_lookups(table, [make_keys(1, seed=6)[0], b"short"])
        assert not system.tracer.enabled

    def test_bare_begin_and_capture_record_the_same_ops(self):
        keys = make_keys(200, seed=11)
        shared = Tracer()
        captured_table = CuckooHashTable(256, tracer=shared)
        plain = CuckooHashTable(256)
        for index, key in enumerate(keys):
            captured_table.insert(key, index)
            plain.insert(key, index)
        for key in keys[:20] + make_keys(5, seed=12):
            plain.tracer.begin()
            expected_value = plain.lookup(key)
            expected = plain.tracer.take()
            value, captured = capture(shared, captured_table.lookup, key)
            assert value == expected_value
            assert list(captured) == list(expected)
            assert captured.mix == expected.mix
        # An insert recorded under capture matches a bare pair too.
        extra = make_keys(1, seed=13)[0]
        plain.tracer.begin()
        plain.insert(extra, -1)
        expected = plain.tracer.take()
        _, captured = capture(shared, captured_table.insert, extra, -1)
        assert list(captured) == list(expected)
        assert captured.mix == expected.mix

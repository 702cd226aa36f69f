"""Per-core trace routing (CoreTracerRouter + capture) and the
allocation-free NullTracer fast path."""

import pytest

from repro.core import HaloSystem
from repro.hashtable import CuckooHashTable
from repro.sim import CoreTracerRouter, MemTrace, NullTracer, Tracer, capture
from repro.sim.trace import NULL_TRACER

from ..conftest import make_keys


class TestNullTracer:
    def test_take_returns_shared_trace_without_allocating(self):
        tracer = NullTracer()
        first = tracer.take()
        tracer.begin()
        second = tracer.take()
        assert first is second is tracer.trace
        assert len(first) == 0

    def test_recording_hooks_are_noops(self):
        tracer = NullTracer()
        tracer.load(0x1000)
        tracer.store(0x2000, size=16)
        tracer.count(loads=3, arithmetic=5)
        tracer.barrier()
        trace = tracer.take()
        assert len(trace) == 0
        assert trace.mix.total == 0

    def test_disabled_flag_and_module_singleton(self):
        assert not NullTracer().enabled
        assert isinstance(NULL_TRACER, NullTracer)

    def test_capture_through_null_tracer(self):
        value, trace = capture(NULL_TRACER, 3, lambda: "ok")
        assert value == "ok"
        assert len(trace) == 0


class TestCoreTracerRouter:
    def test_default_active_is_core_zero(self):
        router = CoreTracerRouter()
        router.begin()
        router.load(0x40)
        assert len(router.tracer_for(0).trace) == 1
        assert len(router.tracer_for(1).trace) == 0

    def test_tracer_for_is_stable_per_core(self):
        router = CoreTracerRouter()
        assert router.tracer_for(2) is router.tracer_for(2)
        assert router.tracer_for(2) is not router.tracer_for(3)

    def test_capture_routes_to_issuing_core(self):
        router = CoreTracerRouter()

        def touch(addr):
            router.load(addr)
            return addr

        value, trace = capture(router, 1, touch, 0x100)
        assert value == 0x100
        assert [op.addr for op in trace] == [0x100]
        # Core 0's tracer never saw the access.
        router.begin()
        assert len(router.take()) == 0

    def test_interleaved_captures_do_not_clobber(self):
        router = CoreTracerRouter()
        _, trace_a = capture(router, 0, lambda: router.load(0xA))
        _, trace_b = capture(router, 1, lambda: router.load(0xB))
        _, trace_a2 = capture(router, 0, lambda: router.load(0xAA))
        assert [op.addr for op in trace_a] == [0xA]
        assert [op.addr for op in trace_b] == [0xB]
        assert [op.addr for op in trace_a2] == [0xAA]

    def test_nested_activation_restores_outer_core(self):
        router = CoreTracerRouter()
        assert not router.enabled
        token_outer = router.activate(1)
        assert router.enabled
        router.begin()
        router.load(0x1)
        token_inner = router.activate(2)
        assert router.enabled
        router.begin()
        router.load(0x2)
        inner = router.take()
        assert router.enabled               # take inside a bracket
        router.restore(token_inner)
        assert router.enabled               # the outer bracket is open
        router.load(0x11)  # back on core 1's in-progress trace
        outer = router.take()
        assert router.enabled
        router.restore(token_outer)
        assert not router.enabled
        assert [op.addr for op in inner] == [0x2]
        assert [op.addr for op in outer] == [0x1, 0x11]

    def test_capture_restores_on_exception(self):
        router = CoreTracerRouter()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            capture(router, 5, boom)
        assert not router.enabled
        # Active target fell back to the pre-capture one (core 0).
        router.begin()
        assert router.enabled
        router.load(0xC0)
        assert [op.addr for op in router.tracer_for(0).trace] == [0xC0]
        assert len(router.tracer_for(5).trace) == 0


class CountingRouter(CoreTracerRouter):
    """A router that counts the recording calls it receives."""

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


class TestIdleRouter:
    """Outside a capture the router is disabled and records nothing."""

    def test_table_build_outside_capture_makes_no_recording_calls(self):
        system = HaloSystem()
        system.tracer = router = CountingRouter()
        table = system.create_table(1024)
        keys = make_keys(600, seed=3)
        for index, key in enumerate(keys):
            assert table.insert(key, index)
        assert table.stats.kicks > 0
        assert table.delete(keys[0])
        for key in keys[1:50] + make_keys(5, seed=4):
            table.lookup(key)
        assert not router.enabled
        assert router.calls == 0
        # A capture still records through the same router.
        value, trace = capture(router, 0, table.lookup, keys[1])
        assert value == 1 and len(trace) > 0 and router.calls == 1
        assert not router.enabled

    def test_software_engine_accepts_an_idle_router_not_a_null_tracer(self):
        system = HaloSystem()
        table = system.create_table(64)
        key = make_keys(1, seed=5)[0]
        table.insert(key, 7)
        assert not system.tracer.enabled
        engine = system.software_engine()
        assert engine.table_tracer(table) is system.tracer
        value, result = engine.lookup(table, key)
        assert value == 7 and result.cycles > 0
        with pytest.raises(ValueError, match="Tracer"):
            engine.table_tracer(CuckooHashTable(64, tracer=NULL_TRACER))

    def test_table_inserts_outside_capture_leave_core_zero_empty(self):
        system = HaloSystem()
        table = system.create_table(1024)
        for index, key in enumerate(make_keys(600, seed=3)):
            assert table.insert(key, index)
        assert table.stats.kicks > 0
        assert table.delete(make_keys(1, seed=3)[0])
        idle = system.tracer_for(0).trace
        assert len(idle) == 0 and idle.mix.total == 0

    def test_bare_begin_records_until_take(self):
        router = CoreTracerRouter()
        assert not router.enabled
        router.load(0x10)                      # idle: dropped
        router.begin()
        assert router.enabled
        router.load(0x40)
        router.count(loads=1)
        trace = router.take()
        assert not router.enabled
        router.load(0x80)                      # idle again: dropped
        assert [op.addr for op in trace] == [0x40]
        assert trace.mix.loads == 1
        assert len(router.tracer_for(0).trace) == 0
        assert len(router.take()) == 0
        assert not router.enabled              # a take with no begin

    def test_capture_inside_bare_begin_keeps_the_outer_recording(self):
        router = CoreTracerRouter()
        router.begin()
        assert router.enabled
        router.load(0x1)

        def inner_load():
            assert router.enabled
            router.load(0x2)

        _, inner = capture(router, 2, inner_load)
        assert router.enabled                  # the bare begin is open
        router.load(0x3)
        outer = router.take()
        assert not router.enabled
        assert [op.addr for op in inner] == [0x2]
        assert [op.addr for op in outer] == [0x1, 0x3]

    def test_bare_begin_and_capture_record_the_same_ops(self):
        keys = make_keys(200, seed=11)
        router = CoreTracerRouter()
        routed = CuckooHashTable(256, tracer=router)
        plain_tracer = Tracer()
        plain = CuckooHashTable(256, tracer=plain_tracer)
        for index, key in enumerate(keys):
            routed.insert(key, index)
            plain.insert(key, index)
        for key in keys[:20] + make_keys(5, seed=12):
            plain_tracer.begin()
            expected_value = plain.lookup(key)
            expected = plain_tracer.take()
            router.begin()
            value = routed.lookup(key)
            bare = router.take()
            captured_value, captured = capture(router, 3, routed.lookup, key)
            assert value == captured_value == expected_value
            for trace in (bare, captured):
                assert list(trace) == list(expected)
                assert trace.mix == expected.mix
        # An insert recorded under capture matches the plain tracer too.
        extra = make_keys(1, seed=13)[0]
        plain_tracer.begin()
        plain.insert(extra, -1)
        expected = plain_tracer.take()
        _, captured = capture(router, 0, routed.insert, extra, -1)
        assert list(captured) == list(expected)
        assert captured.mix == expected.mix


class TestPlainTracerHooks:
    def test_activate_is_noop_and_tracer_for_returns_self(self):
        tracer = Tracer()
        token = tracer.activate(7)
        assert token is None
        tracer.restore(token)
        assert tracer.tracer_for(7) is tracer

    def test_capture_brackets_begin_and_take(self):
        tracer = Tracer()
        tracer.load(0xDEAD)  # stale op from before the bracket
        value, trace = capture(tracer, 0, lambda: tracer.load(0xBEEF))
        assert value is None
        assert [op.addr for op in trace] == [0xBEEF]
        assert isinstance(trace, MemTrace)

"""Memory-access traces bridging functional data structures and the simulator.

The functional substrates (hash tables, classifiers, NFs) execute for real —
they insert, displace, and look up actual keys.  Alongside the functional
result they emit a :class:`MemTrace`: the ordered list of memory operations
the equivalent C code would perform, with *dependency groups* marking which
accesses are serialised behind each other (pointer chases) and which may
overlap (independent bucket reads issued back to back).

The simulator replays a trace through a :class:`~repro.sim.hierarchy.
MemoryHierarchy` from either a core or a CHA to obtain cycle costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class MemOpKind(Enum):
    LOAD = "load"
    STORE = "store"


#: Enum members bound at module level: the recording hot path avoids the
#: per-call descriptor lookup on ``MemOpKind``.
_LOAD = MemOpKind.LOAD
_STORE = MemOpKind.STORE


class MemOp(NamedTuple):
    """One memory operation performed by functional code.

    ``dep`` is a dependency-group index: operation *i* with ``dep=d`` cannot
    start before all operations with group ``< d`` have completed; operations
    sharing a group are independent and may overlap up to the core's MLP.

    A named tuple rather than a (frozen) dataclass: traces allocate one of
    these per memory access on the replay hot path, and tuple construction
    is several times cheaper while keeping the value-semantics contract.
    """

    addr: int
    size: int = 8
    kind: MemOpKind = MemOpKind.LOAD
    dep: int = 0

    @property
    def is_store(self) -> bool:
        return self.kind is MemOpKind.STORE


@dataclass
class InstructionMix:
    """Instruction counts for the non-traced (compute) part of an operation.

    Mirrors the paper's Table 1 categories.  ``loads``/``stores`` here count
    *instructions*, which the trace's :class:`MemOp` entries realise as actual
    addresses; ``arithmetic`` and ``others`` are pure compute.
    """

    loads: int = 0
    stores: int = 0
    arithmetic: int = 0
    others: int = 0

    @property
    def total(self) -> int:
        return self.loads + self.stores + self.arithmetic + self.others

    def __add__(self, other: "InstructionMix") -> "InstructionMix":
        return InstructionMix(
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            arithmetic=self.arithmetic + other.arithmetic,
            others=self.others + other.others,
        )

    def fractions(self) -> dict:
        """Category shares of the total instruction count."""
        total = self.total or 1
        return {
            "memory": (self.loads + self.stores) / total,
            "load": self.loads / total,
            "store": self.stores / total,
            "arithmetic": self.arithmetic / total,
            "others": self.others / total,
        }


class MemTrace:
    """An ordered collection of :class:`MemOp` plus an instruction mix."""

    __slots__ = ("ops", "mix")

    def __init__(self, ops: Iterable[MemOp] = (), mix: InstructionMix = None) -> None:
        self.ops: List[MemOp] = list(ops)
        self.mix = mix if mix is not None else InstructionMix()

    def __iter__(self) -> Iterator[MemOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def load(self, addr: int, size: int = 8, dep: int = 0) -> None:
        self.ops.append(MemOp(addr, size, MemOpKind.LOAD, dep))

    def store(self, addr: int, size: int = 8, dep: int = 0) -> None:
        self.ops.append(MemOp(addr, size, MemOpKind.STORE, dep))

    def extend(self, other: "MemTrace") -> None:
        """Append ``other``'s ops, shifting its dep groups after ours."""
        shift = self.max_dep + 1 if self.ops else 0
        for op in other.ops:
            self.ops.append(MemOp(op.addr, op.size, op.kind, op.dep + shift))
        self.mix = self.mix + other.mix

    @property
    def max_dep(self) -> int:
        return max((op.dep for op in self.ops), default=0)

    def dependency_chains(self) -> List[List[MemOp]]:
        """Group ops by dependency group, ordered."""
        ops = self.ops
        if not ops:
            return []
        # Recorded traces always have non-decreasing deps (a tracer's dep
        # counter only moves forward), so grouping is a single split pass.
        groups: List[List[MemOp]] = []
        current_dep = ops[0].dep
        current = [ops[0]]
        groups.append(current)
        push = current.append
        for op in ops[1:]:
            dep = op.dep
            if dep == current_dep:
                push(op)
            elif dep > current_dep:
                current = [op]
                push = current.append
                groups.append(current)
                current_dep = dep
            else:
                break
        else:
            return groups
        # Hand-built traces may interleave groups: fall back to the
        # generic group-by-value ordering.
        by_dep: dict = {}
        for op in ops:
            by_dep.setdefault(op.dep, []).append(op)
        return [by_dep[key] for key in sorted(by_dep)]

    def touched_lines(self, line_bytes: int = 64) -> set:
        lines = set()
        for op in self.ops:
            first = op.addr // line_bytes
            last = (op.addr + max(op.size, 1) - 1) // line_bytes
            lines.update(range(first, last + 1))
        return lines


class Tracer:
    """Collects traces during functional execution.

    Data structures accept an optional tracer; when absent they run purely
    functionally with zero overhead (``NULL_TRACER`` pattern).
    """

    __slots__ = ("trace", "_dep", "enabled", "_ops")

    def __init__(self) -> None:
        self.trace = MemTrace()
        self._ops = self.trace.ops
        self._dep = 0
        self.enabled = True

    def begin(self) -> None:
        """Start a fresh trace for the next operation."""
        trace = MemTrace()
        self.trace = trace
        # ``_ops`` aliases the live trace's op list so the per-access
        # recording path skips the trace indirection; ``trace`` is only
        # ever replaced here and in ``__init__``, keeping them in sync.
        self._ops = trace.ops
        self._dep = 0

    def barrier(self) -> None:
        """Subsequent accesses depend on all previous ones."""
        self._dep += 1

    def load(self, addr: int, size: int = 8) -> None:
        # Appends inline (not via MemTrace.load): one call level less on
        # the per-access recording path.
        self._ops.append(MemOp(addr, size, _LOAD, self._dep))

    def store(self, addr: int, size: int = 8) -> None:
        self._ops.append(MemOp(addr, size, _STORE, self._dep))

    def count(self, loads: int = 0, stores: int = 0, arithmetic: int = 0,
              others: int = 0) -> None:
        mix = self.trace.mix
        mix.loads += loads
        mix.stores += stores
        mix.arithmetic += arithmetic
        mix.others += others

    def emit_trace(self, ops: Tuple["MemOp", ...], dep_advance: int,
                   mix: "InstructionMix") -> None:
        """Replay a pre-recorded op sequence into the current trace.

        ``ops`` carry dependency groups *relative to the sequence start*;
        they are rebased onto the current group and the recorder advances
        by ``dep_advance`` (the number of barriers the serial emission
        would have issued).  Recording through this hook is equivalent,
        op for op, to the load/store/barrier/count calls it replaces —
        data structures use it to re-emit memoised probe traces.
        """
        base = self._dep
        if base:
            self._ops.extend(
                MemOp(op[0], op[1], op[2], op[3] + base) for op in ops)
        else:
            self._ops.extend(ops)
        self._dep = base + dep_advance
        trace_mix = self.trace.mix
        trace_mix.loads += mix.loads
        trace_mix.stores += mix.stores
        trace_mix.arithmetic += mix.arithmetic
        trace_mix.others += mix.others

    def take(self) -> MemTrace:
        """Return the current trace and reset."""
        trace = self.trace
        self.begin()
        return trace

    # -- per-core routing hooks ------------------------------------------------
    # A plain tracer is core-agnostic: activation is a no-op so `capture`
    # works uniformly whether a structure carries a Tracer or a
    # :class:`CoreTracerRouter`.
    def activate(self, core_id: int):
        """Make ``core_id`` the recording target; returns a restore token."""
        return None

    def restore(self, token) -> None:
        """Undo a previous :meth:`activate`."""

    def tracer_for(self, core_id: int) -> "Tracer":
        """The tracer that records ``core_id``'s operations (self here)."""
        return self


class NullTracer(Tracer):
    """A tracer that records nothing (fast path for pure functional use).

    Truly zero-overhead: ``begin``/``take`` reuse one immutable empty
    :class:`MemTrace` instead of allocating a fresh one per operation, and
    every recording hook is a no-op.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def begin(self) -> None:  # noqa: D102 — no allocation on the fast path
        pass

    def take(self) -> MemTrace:
        """The shared empty trace (callers must treat it as read-only)."""
        return self.trace

    def load(self, addr: int, size: int = 8) -> None:  # noqa: D102
        pass

    def store(self, addr: int, size: int = 8) -> None:  # noqa: D102
        pass

    def count(self, loads: int = 0, stores: int = 0, arithmetic: int = 0,
              others: int = 0) -> None:  # noqa: D102
        pass

    def barrier(self) -> None:  # noqa: D102
        pass

    def emit_trace(self, ops, dep_advance, mix) -> None:  # noqa: D102
        pass


NULL_TRACER = NullTracer()


class CoreTracerRouter(Tracer):
    """A tracer front-end that routes recording to per-core tracers.

    Shared data structures (tables, classifiers) are built once against a
    single tracer object, but with multiple cores interleaving on one DES
    engine each core needs its *own* capture state.  The router keeps one
    real :class:`Tracer` per core and delegates every recording call to the
    currently *active* one; :func:`capture` (or :meth:`activate`/
    :meth:`restore`) brackets each functional call with the issuing core.

    While no core is active the router is disabled (``enabled`` is
    False), so functional calls made outside any bracket (filling a table,
    installing rules) skip the trace API entirely and leave no ops
    behind.  A bare :meth:`begin` opens a core-0 recording that the next
    :meth:`take` closes, which keeps the single-core idiom
    ``begin(); call(); take()`` working unchanged.  ``enabled`` is True
    exactly while a recording is open: between :meth:`activate` and
    :meth:`restore`, or between a bare :meth:`begin` and its :meth:`take`.
    """

    __slots__ = ("_tracers", "_active", "_depth")

    def __init__(self) -> None:
        super().__init__()
        self._tracers: Dict[int, Tracer] = {}
        #: The recording target; ``NULL_TRACER`` while no core is active.
        self._active: Tracer = NULL_TRACER
        #: Open :meth:`activate` brackets; a bare begin's recording is the
        #: one that ``take`` closes at depth zero.
        self._depth = 0
        self.enabled = False

    def tracer_for(self, core_id: int) -> Tracer:
        """The (lazily created) tracer owned by ``core_id``."""
        tracer = self._tracers.get(core_id)
        if tracer is None:
            tracer = self._tracers[core_id] = Tracer()
        return tracer

    def activate(self, core_id: int) -> Tracer:
        """Route subsequent recording to ``core_id``; returns the previous
        target so nested activations restore correctly."""
        previous = self._active
        self._active = self.tracer_for(core_id)
        self._depth += 1
        self.enabled = True
        return previous

    def restore(self, token: Optional[Tracer]) -> None:
        if token is not None:
            self._active = token
            self._depth -= 1
            self.enabled = token is not NULL_TRACER

    # -- delegated recording interface ----------------------------------------
    def begin(self) -> None:
        if self._active is NULL_TRACER:
            self._active = self.tracer_for(0)
            self.enabled = True
        self._active.begin()

    def barrier(self) -> None:
        self._active.barrier()

    def load(self, addr: int, size: int = 8) -> None:
        self._active.load(addr, size)

    def store(self, addr: int, size: int = 8) -> None:
        self._active.store(addr, size)

    def count(self, loads: int = 0, stores: int = 0, arithmetic: int = 0,
              others: int = 0) -> None:
        self._active.count(loads, stores, arithmetic, others)

    def emit_trace(self, ops, dep_advance, mix) -> None:
        self._active.emit_trace(ops, dep_advance, mix)

    def take(self) -> MemTrace:
        active = self._active
        if active is NULL_TRACER:
            return self.tracer_for(0).take()
        trace = active.take()
        if not self._depth:
            self._active = NULL_TRACER
            self.enabled = False
        return trace


def capture(tracer: Tracer, core_id: int, func, *args,
            **kwargs) -> Tuple[object, MemTrace]:
    """Run ``func`` and capture its memory trace on behalf of ``core_id``.

    The one sanctioned begin/run/take bracket: activates the core's tracer
    (a no-op for plain tracers), executes the functional call, and returns
    ``(value, trace)``.  Because DES process steps are atomic, no other
    core's recording can interleave inside the bracket.
    """
    token = tracer.activate(core_id)
    try:
        tracer.begin()
        value = func(*args, **kwargs)
        return value, tracer.take()
    finally:
        tracer.restore(token)

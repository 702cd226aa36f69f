"""Memory-access traces bridging functional data structures and the simulator.

The functional substrates (hash tables, classifiers, NFs) execute for real —
they insert, displace, and look up actual keys.  Alongside the functional
result they emit a :class:`MemTrace`: the ordered list of memory operations
the equivalent C code would perform, with *dependency groups* marking which
accesses are serialised behind each other (pointer chases) and which may
overlap (independent bucket reads issued back to back).

The simulator replays a trace through a :class:`~repro.sim.hierarchy.
MemoryHierarchy` from either a core or a CHA to obtain cycle costs.

Public contract
===============

* A :class:`Tracer` records only between :meth:`Tracer.begin` and
  :meth:`Tracer.take`: ``enabled`` is True exactly while a recording is
  open, and ``take`` returns the recording's trace.
* :func:`capture` is the one bracket around a functional call; it closes
  its recording when the call raises.
* Recordings never nest and never span an engine step: each opens and
  closes inside one plain call, so programs sharing one engine (and one
  tracer) never have recordings open at once.
* Data structures test ``enabled`` before they record.
* A table or classifier layer built without a tracer owns a fresh,
  disabled one, so a capture on it records that structure's operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List, NamedTuple, Tuple


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


class Tracer:
    """Records the memory trace of one functional operation at a time.

    ``enabled`` is False until :meth:`begin` opens a recording and again
    once :meth:`take` closes it.  Data structures test ``enabled`` before
    they record, so functional calls made outside a recording (filling a
    table, installing rules) never touch the trace API.
    """

    __slots__ = ("trace", "_dep", "enabled", "_ops")

    def __init__(self) -> None:
        self.trace = MemTrace()
        self._ops = self.trace.ops
        self._dep = 0
        self.enabled = False

    def begin(self) -> None:
        """Open a recording into a fresh trace."""
        trace = MemTrace()
        self.trace = trace
        # ``_ops`` aliases the live trace's op list so the per-access
        # recording path skips the trace indirection; ``trace`` is only
        # ever replaced here and in ``__init__``, keeping them in sync.
        self._ops = trace.ops
        self._dep = 0
        self.enabled = True

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
        """Close the recording and return its trace."""
        self.enabled = False
        return self.trace


def capture(tracer: Tracer, func, *args, **kwargs) -> Tuple[object, MemTrace]:
    """Run ``func`` inside one recording; returns ``(value, trace)``.

    The one begin/run/take bracket.  The recording is closed even when
    ``func`` raises.
    """
    tracer.begin()
    try:
        value = func(*args, **kwargs)
    finally:
        trace = tracer.take()
    return value, trace

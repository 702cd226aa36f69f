"""Structured per-query trace spans with cycle timestamps.

A lookup's journey — core issue → distributor → CHA-slice accelerator →
cache level / DRAM accesses → reply — is recorded as a tree of
:class:`Span` objects.  Timestamps are *simulated cycles* supplied by the
caller (``engine.now``), never wall-clock time, so traces are bit-for-bit
deterministic and the golden-trace regression suite can diff them.

Because DES processes interleave, spans never rely on an ambient
"current span" stack: the parent is threaded explicitly (each query
carries its root span, see :class:`~repro.core.query.LookupQuery`).

A query issued without a span uses the shared :data:`NULL_SPAN`, whose
mutators are no-ops.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional


class Span:
    """One timed region of a query's life, nested under a parent."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float, **attrs: Any) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs
        self.children: List["Span"] = []

    def child(self, name: str, start: float, **attrs: Any) -> "Span":
        span = Span(name, start, **attrs)
        self.children.append(span)
        return span

    def finish(self, end: float) -> "Span":
        self.end = end
        return self

    def note(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name}, [{self.start}, {self.end}], "
                f"{len(self.children)} children)")


class _NullSpan(Span):
    """Shared inert span: absorbs children and finishes silently."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", 0.0)

    def child(self, name: str, start: float, **attrs: Any) -> "Span":
        return self

    def finish(self, end: float) -> "Span":
        return self

    def note(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Collects root spans, keeping the most recent ``capacity`` of them."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._roots: Deque[Span] = deque(maxlen=capacity)
        self.dropped = 0

    def root(self, name: str, start: float, **attrs: Any) -> Span:
        """Open a new top-level span (one per query, typically)."""
        if len(self._roots) == self._roots.maxlen:
            self.dropped += 1
        span = Span(name, start, **attrs)
        self._roots.append(span)
        return span

    @property
    def roots(self) -> List[Span]:
        return list(self._roots)

    def __len__(self) -> int:
        return len(self._roots)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self._roots]

    def clear(self) -> None:
        self._roots.clear()
        self.dropped = 0


def validate_nesting(span: Span) -> List[str]:
    """Check the span-tree timing invariants; returns human-readable
    violations (empty list = well formed).

    * every span has finished (``end`` is set) and ``end >= start``;
    * every child's ``[start, end]`` lies within its parent's.
    """
    problems: List[str] = []

    def visit(node: Span) -> None:
        if node.end is None:
            problems.append(f"span {node.name!r} never finished")
            return
        if node.end < node.start:
            problems.append(
                f"span {node.name!r} ends ({node.end}) before it starts "
                f"({node.start})")
        for child in node.children:
            visit(child)
            if child.end is None:
                continue
            if child.start < node.start or child.end > node.end:
                problems.append(
                    f"child {child.name!r} [{child.start}, {child.end}] "
                    f"escapes parent {node.name!r} "
                    f"[{node.start}, {node.end}]")

    visit(span)
    return problems

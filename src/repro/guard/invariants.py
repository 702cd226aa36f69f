"""Runtime invariants over fixed model seams.

An :class:`Invariant` is a named zero-argument predicate returning
``None`` when the seam is healthy or a one-line detail string when it is
not.  :class:`~repro.guard.engine_guard.EngineGuard` evaluates its
invariants every :data:`~repro.guard.engine_guard.CHECK_EVERY` events
and once more when the calendar drains; an engine with no guard pays
nothing.

The built-in factories below cover the seams the model is most likely to
corrupt silently.  They are deliberately *duck-typed* — each takes the
live model object and closes over it — so this module imports nothing
from :mod:`repro.sim` or :mod:`repro.core` and the layering stays
one-directional (``guard`` sits just above ``obs``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class Invariant:
    """A named predicate over one model seam."""

    __slots__ = ("name", "predicate")

    def __init__(self, name: str,
                 predicate: Callable[[], Optional[str]]) -> None:
        self.name = name
        self.predicate = predicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Invariant({self.name})"


# -- built-in invariant factories (duck-typed over live model objects) -------

def cache_occupancy(cache: Any) -> Invariant:
    """No set may hold more lines than the cache has ways."""
    def predicate() -> Optional[str]:
        for index, cache_set in cache._sets.items():
            if len(cache_set) > cache.assoc:
                return (f"set {index} holds {len(cache_set)} lines "
                        f"> {cache.assoc} ways")
        return None
    return Invariant(f"cache.{cache.name}.occupancy", predicate)


def resource_conservation(resource: Any, name: str) -> Invariant:
    """MSHR/scoreboard conservation: ``0 <= in_use <= capacity``, and no
    waiter starves behind a free slot (free capacity with a queue means a
    lost wakeup)."""
    def predicate() -> Optional[str]:
        if not 0 <= resource.in_use <= resource.capacity:
            return (f"in_use {resource.in_use} outside "
                    f"[0, {resource.capacity}]")
        if resource.in_use < resource.capacity:
            waiting = len(resource._queue)
            if waiting:
                return (f"{resource.capacity - resource.in_use} free slot(s) "
                        f"while {waiting} waiter(s) queued (starvation)")
        return None
    return Invariant(f"resource.{name}.conservation", predicate)


def lock_bit_accounting(manager: Any) -> Invariant:
    """Hardware lock-bit acquire/release pairing (``core/locking.py``):
    the outstanding balance never goes negative, and the LLC never holds
    more locked lines than the balance explains."""
    def predicate() -> Optional[str]:
        stats = manager.stats
        held = stats.lock_operations - stats.unlock_operations
        if held < 0:
            return (f"unlock without matching lock: balance {held} "
                    f"({stats.lock_operations} locks, "
                    f"{stats.unlock_operations} unlocks)")
        resident = sum(cache.locked_lines for cache in manager.hierarchy.llc)
        if resident > held:
            return (f"{resident} locked LLC line(s) but only {held} "
                    f"outstanding acquire(s)")
        return None
    return Invariant("locks.pairing", predicate)


def interconnect_conservation(interconnect: Any) -> Invariant:
    """NoC message accounting stays sane under fault drop plans: counts
    never go negative and hop totals stay within the worst-case path
    length per message."""
    def predicate() -> Optional[str]:
        stats = interconnect.stats
        if stats.messages < 0 or stats.total_hops < 0:
            return (f"negative traffic counters: messages={stats.messages}, "
                    f"total_hops={stats.total_hops}")
        max_hops = interconnect.stops  # no route exceeds the stop count
        if stats.total_hops > stats.messages * max_hops:
            return (f"{stats.total_hops} hops across {stats.messages} "
                    f"messages exceeds {max_hops} hops/message worst case")
        return None
    return Invariant("interconnect.conservation", predicate)

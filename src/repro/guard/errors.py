"""Structured guard failures: what went wrong, and who was blocked on what.

Every error the safety net raises carries machine-readable context — the
list of blocked processes with a human-readable description of each
process's waitable — so a hung campaign fails with a gem5-style deadlock
dump instead of a bare traceback.  The description logic is duck-typed
over the engine's waitables (``Timeout``/``Event``/``Process`` and the
``Resource``/``Store`` back-references events carry in ``source``), so
this module imports nothing from :mod:`repro.sim`; the engine stays free
to import nothing from here either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence


class GuardError(RuntimeError):
    """Base class for everything the safety net raises."""


@dataclass(frozen=True)
class BlockedProcess:
    """One blocked process in a deadlock/stall dump."""

    name: str
    waiting_on: str

    def render(self) -> str:
        return f"{self.name} -> waiting on {self.waiting_on}"


def describe_waitable(waitable: Any) -> str:
    """One line saying what a blocked process is waiting for."""
    if waitable is None:
        return "nothing (runnable)"
    # Timeout before plain Event: it subclasses Event and knows its deadline.
    at = getattr(waitable, "at", None)
    if at is not None:
        return f"timeout firing at cycle {at:g}"
    generator = getattr(waitable, "generator", None)
    if generator is not None:  # a Process joined with `yield proc`
        name = getattr(waitable, "name", "process")
        return f"process {name!r} to finish"
    source = getattr(waitable, "source", None)
    if source is not None:
        queue = getattr(source, "_queue", None)
        if queue is not None:  # Resource acquire event
            try:
                position = queue.index(waitable) + 1
            except ValueError:
                position = 0
            where = (f"queue position {position}/{len(queue)}"
                     if position else "granted, not yet resumed")
            return (f"Resource(capacity={source.capacity}, "
                    f"in_use={source.in_use}) {where}")
        getters = getattr(source, "_getters", None)
        if getters is not None:  # Store get event
            return (f"Store get ({len(source)} item(s) buffered, "
                    f"{len(getters)} getter(s) queued)")
    waiters = len(getattr(waitable, "_waiters", ()))
    return f"untriggered event ({waiters} waiter(s))"


def blocked_dump(engine: Any) -> List[BlockedProcess]:
    """Every blocked process on ``engine``, with described waitables."""
    return [BlockedProcess(name=process.name,
                           waiting_on=describe_waitable(process.waiting_on))
            for process in engine.blocked_processes()]


def _render_dump(headline: str, blocked: Sequence[BlockedProcess]) -> str:
    lines = [headline]
    if blocked:
        lines.append(f"{len(blocked)} blocked process(es):")
        lines.extend(f"  {entry.render()}" for entry in blocked)
    return "\n".join(lines)


class DeadlockError(GuardError):
    """The event calendar drained while processes remained blocked."""

    def __init__(self, blocked: Sequence[BlockedProcess], now: float,
                 events_processed: int) -> None:
        self.blocked = list(blocked)
        self.now = now
        self.events_processed = events_processed
        super().__init__(_render_dump(
            f"deadlock at cycle {now:g} after {events_processed} events: "
            f"event calendar is empty but processes are still waiting",
            self.blocked))


class StallError(GuardError):
    """Livelock: events keep firing but simulated time stopped advancing."""

    def __init__(self, blocked: Sequence[BlockedProcess], now: float,
                 stalled_events: int) -> None:
        self.blocked = list(blocked)
        self.now = now
        self.stalled_events = stalled_events
        super().__init__(_render_dump(
            f"stall at cycle {now:g}: {stalled_events} events fired without "
            f"simulated time advancing (livelock)",
            self.blocked))


class InvariantViolation(GuardError):
    """A runtime invariant predicate reported a broken model seam."""

    def __init__(self, name: str, detail: str, now: float,
                 events_processed: int) -> None:
        self.name = name
        self.detail = detail
        self.now = now
        self.events_processed = events_processed
        super().__init__(
            f"invariant {name!r} violated at cycle {now:g} "
            f"(event {events_processed}): {detail}")

"""The engine watchdog: livelock detection and deadlock dumps.

Real simulators refuse to hang silently; this watchdog gives the DES
engine the same property.  It observes every dispatched event (via the
engine's guard hook) and raises a structured :mod:`repro.guard.errors`
exception when:

* **no simulated-time progress** happens across :data:`STALL_EVENTS`
  consecutive events — the livelock signature of processes ping-ponging
  at one cycle (e.g. a snoop-retry loop against a stuck lock bit);
* the **calendar drains while processes are still blocked** — true
  deadlock, reported with every blocked process and its waitable.

It sets no budgets: a campaign run's wall-clock bound is
``repro bench --timeout``, and a cycle bound is ``Engine.run(until=)``.
The watchdog only reads engine state; simulated time is bit-identical
with or without it (the guard-parity test pins this).
"""

from __future__ import annotations

from typing import Any

from .errors import DeadlockError, StallError, blocked_dump

#: Events without simulated-time progress that count as a livelock.
STALL_EVENTS = 100_000


class Watchdog:
    """Deadlock/livelock enforcement over one engine."""

    def __init__(self) -> None:
        self._progress_now = 0.0
        self._progress_events = 0

    def start(self, engine: Any) -> None:
        """Record the progress baseline; called when the guard is attached."""
        self._progress_now = engine.now
        self._progress_events = engine.events_processed

    # -- per-event check (the hot path) -------------------------------------
    def check(self, engine: Any) -> None:
        now = engine.now
        events = engine.events_processed
        if now > self._progress_now:
            self._progress_now = now
            self._progress_events = events
        elif events - self._progress_events >= STALL_EVENTS:
            raise StallError(blocked_dump(engine), now,
                             events - self._progress_events)

    # -- drain check --------------------------------------------------------
    def on_drain(self, engine: Any) -> None:
        """Calendar empty: any still-blocked process is a deadlock."""
        blocked = blocked_dump(engine)
        if blocked:
            raise DeadlockError(blocked, engine.now, engine.events_processed)

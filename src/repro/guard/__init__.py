"""``repro.guard`` — the simulation safety net.

Two cooperating layers give the harness the discipline real simulators
have (deadlock dumps, checkpoint-friendly failure modes):

* the **engine watchdog** (:mod:`repro.guard.watchdog`) — livelock
  detection (no ``now`` progress across
  :data:`~repro.guard.watchdog.STALL_EVENTS` events) and true-deadlock
  detection (calendar empty with processes still blocked), each raising
  a structured error that names every blocked process and what it is
  waiting on;
* **invariants** (:mod:`repro.guard.invariants`) — predicates over fixed
  model seams (cache occupancy, scoreboard/Resource conservation,
  lock-bit pairing, NoC message accounting), sampled every
  :data:`~repro.guard.engine_guard.CHECK_EVERY` events and at each
  drain; the first violation raises.

A guard runs only where code attaches one: ``attach_standard_guard(system)``
or ``engine.attach_guard(EngineGuard(...))``.  Layering: ``guard`` sits
directly above ``obs``; of the layers above it only ``sim``, ``runner``,
and ``analysis`` may import it (enforced by ``scripts/check_layering.py``).
"""

from __future__ import annotations

from .engine_guard import CHECK_EVERY, EngineGuard
from .errors import (
    BlockedProcess,
    DeadlockError,
    GuardError,
    InvariantViolation,
    StallError,
    blocked_dump,
    describe_waitable,
)
from .invariants import (
    Invariant,
    cache_occupancy,
    interconnect_conservation,
    lock_bit_accounting,
    resource_conservation,
)
from .presets import attach_standard_guard, standard_invariants
from .watchdog import STALL_EVENTS, Watchdog

__all__ = [
    "BlockedProcess",
    "CHECK_EVERY",
    "DeadlockError",
    "EngineGuard",
    "GuardError",
    "Invariant",
    "InvariantViolation",
    "STALL_EVENTS",
    "StallError",
    "Watchdog",
    "attach_standard_guard",
    "blocked_dump",
    "cache_occupancy",
    "describe_waitable",
    "interconnect_conservation",
    "lock_bit_accounting",
    "resource_conservation",
    "standard_invariants",
]

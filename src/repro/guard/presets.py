"""Convenience wiring: the standard invariant catalog for a HaloSystem.

:func:`standard_invariants` walks a live ``HaloSystem`` *by attribute*
(duck-typed — this module never imports ``repro.core``/``repro.sim``, so
the layering stays one-directional) and instantiates the built-in
invariants over every seam it finds:

* every L1/L2/LLC cache's set occupancy (≤ ways per set);
* every accelerator scoreboard's slot conservation (in-use + free ==
  capacity, no waiter starved behind a free slot);
* hardware lock-bit acquire/release pairing across the LLC;
* interconnect message/hop conservation (holds under fault drop plans
  too).

:func:`attach_standard_guard` bundles them with a watchdog into an
:class:`~repro.guard.engine_guard.EngineGuard`, attaches it to the
system's engine, and registers the ``guard.*`` metrics pull source so
``python -m repro report`` shows what the safety net observed.
:func:`maybe_attach_guard` is the env-gated variant experiment modules
call (``REPRO_GUARD=1`` turns the net on for a whole campaign).
"""

from __future__ import annotations

import os
from typing import Any, List, Optional

from .engine_guard import EngineGuard
from .invariants import (
    Invariant,
    cache_occupancy,
    interconnect_conservation,
    lock_bit_accounting,
    resource_conservation,
)
from .watchdog import Watchdog, WatchdogConfig

GUARD_ENV = "REPRO_GUARD"


def guard_env_enabled() -> bool:
    """``REPRO_GUARD=1`` (or ``true``/``on``/``yes``) opts a run in."""
    return os.environ.get(GUARD_ENV, "0").lower() in ("1", "true", "on", "yes")


def standard_invariants(system: Any) -> List[Invariant]:
    """The built-in invariant catalog over one ``HaloSystem``."""
    invariants: List[Invariant] = []
    hierarchy = system.hierarchy
    for cache in (*hierarchy.l1, *hierarchy.l2, *hierarchy.llc):
        invariants.append(cache_occupancy(cache))
    for accelerator in system.accelerators:
        invariants.append(resource_conservation(
            accelerator.scoreboard._slots,
            f"scoreboard.s{accelerator.slice_id}"))
    invariants.append(lock_bit_accounting(system.lock_manager))
    invariants.append(interconnect_conservation(hierarchy.interconnect))
    return invariants


def attach_standard_guard(system: Any,
                          config: Optional[WatchdogConfig] = None,
                          cadence: int = 256,
                          strict: bool = True) -> EngineGuard:
    """Attach watchdog + standard invariants to ``system`` and register
    the ``guard`` metrics source; returns the guard."""
    guard = EngineGuard(watchdog=Watchdog(config),
                        invariants=standard_invariants(system),
                        cadence=cadence, strict=strict,
                        trace=system.obs.trace)
    system.engine.attach_guard(guard)
    system.obs.metrics.register_source("guard", guard.as_dict)
    return guard


def maybe_attach_guard(system: Any,
                       config: Optional[WatchdogConfig] = None,
                       cadence: int = 256,
                       strict: bool = True) -> Optional[EngineGuard]:
    """Attach the standard guard when ``REPRO_GUARD`` opts in, else no-op."""
    if not guard_env_enabled():
        return None
    return attach_standard_guard(system, config=config, cadence=cadence,
                                 strict=strict)

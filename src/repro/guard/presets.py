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

:func:`attach_standard_guard` puts them in an
:class:`~repro.guard.engine_guard.EngineGuard`, attaches it to the
system's engine, and registers the ``guard.*`` metrics pull source so
``python -m repro report`` shows what the safety net observed.  A guard
runs only where code attaches one.
"""

from __future__ import annotations

from typing import Any, List

from .engine_guard import EngineGuard
from .invariants import (
    Invariant,
    cache_occupancy,
    interconnect_conservation,
    lock_bit_accounting,
    resource_conservation,
)


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


def attach_standard_guard(system: Any) -> EngineGuard:
    """Attach a guard with the standard invariants to ``system`` and
    register the ``guard`` metrics source; returns the guard."""
    guard = EngineGuard(standard_invariants(system))
    system.engine.attach_guard(guard)
    system.obs.metrics.register_source("guard", guard.as_dict)
    return guard

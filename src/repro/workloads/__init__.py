"""``repro.workloads`` — scalable churn/attack traffic scenarios.

The Figure-3 profiles are static: a fixed flow population, uniformly
replayed.  Production NFV traffic is not — flows arrive and depart at
high rates, packet popularity is Zipf-skewed, sizes are Pareto
heavy-tailed, SYN floods arrive in duty-cycled waves, and load swings
diurnally.  This package scripts those regimes (ROADMAP item 3) as
seed-deterministic *streaming* generators sized for million-flow
scenarios.

Public contract: :class:`ChurnSpec` (+ its ``steady`` / ``high_churn`` /
``syn_flood`` presets) and :class:`ChurnEngine` with its lazy
``packets(n)`` / ``keys(n)`` iterators and ``ChurnStats`` counters;
:class:`PhaseWindow` and :class:`DiurnalCurve` for phase scripting; the
lifecycle samplers (:class:`PoissonArrivals`, :class:`MmppArrivals`,
:class:`ParetoSizes`, :class:`ZipfSelector`).  Layering: ``workloads``
sits above the dataplane and may only be imported by ``analysis`` and
``runner`` (enforced by ``scripts/check_layering.py``); everything here
is stdlib-only.
"""

from .churn import ChurnEngine, ChurnSpec, ChurnStats
from .lifecycle import (
    MmppArrivals,
    ParetoSizes,
    PoissonArrivals,
    ZipfSelector,
    fork_rng,
    harmonic_weights,
)
from .phases import DiurnalCurve, PhaseWindow

__all__ = [
    "ChurnEngine",
    "ChurnSpec",
    "ChurnStats",
    "DiurnalCurve",
    "MmppArrivals",
    "ParetoSizes",
    "PhaseWindow",
    "PoissonArrivals",
    "ZipfSelector",
    "fork_rng",
    "harmonic_weights",
]

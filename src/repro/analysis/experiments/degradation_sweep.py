"""Graceful degradation under injected hardware faults.

The paper's evaluation (§6) runs on healthy hardware; this experiment asks
the production question: how does each execution mode's sustained
throughput and tail latency degrade when the machine misbehaves?  A
machine-wide :meth:`~repro.faults.plan.FaultPlan.degradation` mix —
duty-cycled accelerator stalls, DRAM latency spikes, and probabilistic NoC
drops, all scaled by one ``intensity`` knob — is installed on a fresh
system per (intensity, backend) cell, and every backend classifies the
same DRAM-resident key stream:

* **software** — feels the DRAM spikes and NoC retransmits directly;
* **halo-b** / **halo-nb** — additionally absorb the accelerator stalls;
  the non-blocking path runs under a
  :class:`~repro.exec.backend.ResiliencePolicy` (bounded polls, retries,
  software fallback), so it sheds stalled queries instead of hanging;
* **adaptive** — the hybrid controller plus the same resilience policy:
  the expected production configuration.

The fault plan's duty-cycled coverage nests by construction (every cycle
faulted at intensity *x* is faulted at every higher intensity, with
magnitudes scaling linearly), so per-backend throughput must be monotone
non-increasing in intensity — the report asserts it, along with zero lost
lookups in every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ...core.halo_system import HaloSystem
from ...exec.backend import ResiliencePolicy
from ...faults import FaultInjector, FaultPlan
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks

DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 0.75)
BACKENDS = ("software", "halo-b", "halo-nb", "adaptive")

#: Bounded-wait policy for the accelerator-backed cells: generous enough
#: that healthy queries never time out, small enough that a stalled slice
#: is abandoned within one fault burst.
SWEEP_POLICY = ResiliencePolicy(poll_budget=64, max_retries=1,
                                backoff_base=32.0, probe_interval=16,
                                recovery_successes=2)


@dataclass
class BackendCell:
    """One (backend, intensity) measurement."""

    backend: str
    intensity: float
    lookups: int
    elapsed_cycles: float
    p99_cycles: float
    degraded_lookups: int
    wrong_results: int
    fault_injections: int

    @property
    def lookups_per_kcycle(self) -> float:
        if not self.elapsed_cycles:
            return 0.0
        return self.lookups / self.elapsed_cycles * 1000.0


@dataclass
class DegradationPoint:
    """All backends at one fault intensity."""

    intensity: float
    cells: Dict[str, BackendCell]


def _run_cell(backend_kind: str, intensity: float, lookups: int,
              entries: int, seed: int) -> BackendCell:
    system = HaloSystem()
    table = system.create_table(entries, name="degr")
    pairs = list(zip(random_keys(entries, seed=seed), range(entries)))
    inserted = [pair for pair, ok in zip(pairs, table.insert_many(pairs))
                if ok]
    system.warm_table(table)
    # DRAM-resident tables (the Figure 10 scenario): the software path
    # degrades through the DRAM spikes, the HALO paths through the
    # accelerator stalls — every mode has skin in the game.
    system.flush_table(table)
    system.hierarchy.flush_private(0)

    plan = FaultPlan.degradation(intensity, seed=seed * 31 + 7)
    injector = FaultInjector(system, plan).install()

    kwargs = {}
    if backend_kind in ("halo-nb", "adaptive"):
        kwargs["policy"] = SWEEP_POLICY
    backend = system.backend(backend_kind, **kwargs)

    rng = np.random.default_rng(seed + 1)
    picks = rng.integers(0, len(inserted), size=lookups)
    keys = [inserted[int(i)][0] for i in picks]
    expected = [inserted[int(i)][1] for i in picks]

    start = system.engine.now
    outcomes = system.engine.run_process(backend.lookup_stream(table, keys))
    elapsed = system.engine.now - start

    wrong = sum(1 for outcome, value in zip(outcomes, expected)
                if outcome.value != value)
    cycles = [outcome.cycles for outcome in outcomes]
    return BackendCell(
        backend=backend_kind,
        intensity=intensity,
        lookups=len(outcomes),
        elapsed_cycles=elapsed,
        p99_cycles=float(np.percentile(cycles, 99)) if cycles else 0.0,
        degraded_lookups=sum(1 for outcome in outcomes if outcome.degraded),
        wrong_results=wrong,
        fault_injections=injector.stats.injections,
    )


def run_point(intensity: float, lookups: int = 600, entries: int = 4096,
              seed: int = 1237) -> DegradationPoint:
    cells = {kind: _run_cell(kind, intensity, lookups, entries, seed)
             for kind in BACKENDS}
    return DegradationPoint(intensity=intensity, cells=cells)


def run(intensities: Sequence[float] = DEFAULT_INTENSITIES,
        lookups: int = 600, entries: int = 4096,
        seed: int = 1237) -> List[DegradationPoint]:
    return [run_point(intensity, lookups, entries, seed)
            for intensity in intensities]


def report(points: List[DegradationPoint]) -> str:
    points = sorted(points, key=lambda point: point.intensity)
    rows = []
    for point in points:
        for kind in BACKENDS:
            cell = point.cells[kind]
            rows.append((
                f"{point.intensity:.2f}", kind,
                f"{cell.lookups_per_kcycle:.2f}",
                f"{cell.p99_cycles:.0f}",
                cell.degraded_lookups,
                cell.fault_injections,
            ))
    table = format_table(
        ["intensity", "backend", "lookups/kcyc", "p99 cyc", "degraded",
         "injections"],
        rows,
        title="Fault-intensity sweep (DRAM-resident tables, "
              "machine-wide degradation mix)")

    # Monotone non-increasing throughput per backend (1% slack for the
    # probabilistic NoC component).
    monotone = True
    worst = ""
    for kind in BACKENDS:
        series = [point.cells[kind].lookups_per_kcycle for point in points]
        for prev, cur in zip(series, series[1:]):
            if cur > prev * 1.01:
                monotone = False
                worst = f"{kind}: {prev:.2f} -> {cur:.2f}"
    lost = sum(cell.wrong_results
               for point in points for cell in point.cells.values())
    base, last = points[0], points[-1]
    checks = [
        PaperCheck("throughput degrades monotonically",
                   "nested fault coverage by construction",
                   worst or "non-increasing for all 4 backends",
                   holds=monotone),
        PaperCheck("zero lost lookups under faults",
                   "resilience policy falls back, never drops",
                   f"{lost} wrong results across "
                   f"{sum(c.lookups for p in points for c in p.cells.values())} lookups",
                   holds=lost == 0),
        PaperCheck("faults actually bite",
                   "highest intensity must be slower than healthy",
                   f"adaptive {base.cells['adaptive'].lookups_per_kcycle:.2f}"
                   f" -> {last.cells['adaptive'].lookups_per_kcycle:.2f} "
                   f"lookups/kcyc",
                   holds=(base.intensity == 0.0
                          and last.cells["adaptive"].lookups_per_kcycle
                          < base.cells["adaptive"].lookups_per_kcycle)),
    ]
    return table + "\n\n" + render_checks("degradation sweep", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "degradation",
    "artifact": "§6 extension (faulted hardware)",
    "slug": "degradation_sweep",
    "title": "fault intensity vs sustained throughput/p99 per backend",
    "grid": [
        (f"int_{int(intensity * 100):03d}",
         {"intensity": intensity, "lookups": 600, "entries": 4096,
          "seed": 1237},
         {"intensity": intensity, "lookups": 160, "entries": 2048,
          "seed": 1237})
        for intensity in DEFAULT_INTENSITIES
    ],
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one fault intensity."""
    del label, seed
    return run_point(params["intensity"], lookups=params["lookups"],
                     entries=params["entries"], seed=params["seed"])


def bench_report(payloads):
    return report(list(payloads.values()))

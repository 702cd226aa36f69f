"""Figure 10 — per-lookup latency breakdown, software vs HALO, with the
table resident in LLC vs DRAM.

Paper result: HALO cuts the computing portion by ~48.1% (the memory-adjacent
instructions move into the accelerator), accesses data 4.1× faster than a
core when the entry is in LLC and 1.6× faster when it is in DRAM, and
eliminates the software locking overhead entirely (hardware lock bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ...core.halo_system import HaloSystem
from ...hashtable.locking import READ_SIDE_CYCLES
from ...sim.stats import Breakdown
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks


#: Registry metrics captured per scenario so the breakdown is traceable to
#: named observability metrics (see docs/MODELING.md §7).
TRACEABLE_METRICS = (
    "halo.accelerator.service_cycles",
    "halo.query.latency_cycles",
    "mem.cha_access.cycles",
    "mem.core_access.cycles",
)


@dataclass
class Fig10Cell:
    scenario: str            # "llc" | "dram"
    solution: str            # "software" | "halo"
    breakdown: Breakdown     # per-lookup cycles: compute / memory / locking
    #: Histogram summaries for :data:`TRACEABLE_METRICS`, captured from the
    #: scenario's registry once both solutions have run; empty when obs off.
    registry_metrics: Dict[str, dict] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.breakdown.total


def _measure_software(system: HaloSystem, table, keys, scenario: str,
                      lookups: int, seed: int) -> Fig10Cell:
    engine = system.software_engine()
    rng = np.random.default_rng(seed)
    merged = Breakdown()
    for index in rng.integers(0, len(keys), size=lookups):
        if scenario == "dram":
            system.flush_table(table)
        _value, result = engine.lookup(table, keys[int(index)])
        merged = merged.merged(result.breakdown)
    return Fig10Cell(scenario, "software", merged.scaled(1.0 / lookups))


def _measure_halo(system: HaloSystem, table, keys, scenario: str,
                  lookups: int, seed: int) -> Fig10Cell:
    """HALO-B lookups, decomposed into compute vs memory components.

    The accelerator's service time is dominated by CHA-side data accesses;
    the compute part (hash unit, comparators, metadata-cache hit) is a few
    cycles.  We reconstruct the same components from the accelerator's
    stats and the episode's measured latency.
    """
    rng = np.random.default_rng(seed)
    merged = Breakdown()
    halo_params = system.machine.halo
    compute_per_query = (halo_params.hash_latency
                         + 2 * halo_params.compare_latency + 1)
    for index in rng.integers(0, len(keys), size=lookups):
        if scenario == "dram":
            system.flush_table(table)
        episode = system.run_blocking_lookups(table, [keys[int(index)]])
        total = episode.cycles
        dispatch = (system.hierarchy.latency.dispatch
                    + system.hierarchy.latency.result_return)
        memory = max(0.0, total - compute_per_query - dispatch)
        merged.add("compute", compute_per_query + dispatch)
        merged.add("memory", memory)
    return Fig10Cell(scenario, "halo", merged.scaled(1.0 / lookups))


def run(table_entries: int = 1 << 16, lookups: int = 200,
        seed: int = 9) -> Dict[str, Fig10Cell]:
    """Returns cells keyed ``"{scenario}/{solution}"``."""
    cells: Dict[str, Fig10Cell] = {}
    for scenario in ("llc", "dram"):
        system = HaloSystem()
        table = system.create_table(table_entries, name="fig10")
        keys = random_keys(int(table_entries * 0.6), seed=seed)
        table.insert_many(zip(keys, range(len(keys))))
        system.warm_table(table)
        system.hierarchy.flush_private(0)
        cells[f"{scenario}/software"] = _measure_software(
            system, table, keys, scenario, lookups, seed)
        if scenario == "dram":
            system.flush_table(table)
        cells[f"{scenario}/halo"] = _measure_halo(
            system, table, keys, scenario, lookups, seed + 1)
        snapshot = system.obs.metrics.snapshot()
        cells[f"{scenario}/halo"].registry_metrics = {
            name: snapshot[name] for name in TRACEABLE_METRICS
            if isinstance(snapshot.get(name), dict)
            and snapshot[name].get("count")}
    return cells


def report(cells: Dict[str, Fig10Cell]) -> str:
    llc_software = cells["llc/software"]
    rows = []
    for key in ("llc/software", "llc/halo", "dram/software", "dram/halo"):
        cell = cells[key]
        rows.append((key,
                     cell.breakdown["compute"],
                     cell.breakdown["memory"],
                     cell.breakdown["locking"],
                     cell.total,
                     f"{cell.total / llc_software.total:.2f}"))
    table = format_table(
        ["scenario/solution", "compute", "data access", "locking", "total",
         "vs sw-llc"],
        rows,
        title="Figure 10 — lookup latency breakdown "
              "(cycles, normalised column vs software/LLC)")

    llc_ratio = (cells["llc/software"].breakdown["memory"]
                 / max(cells["llc/halo"].breakdown["memory"], 1e-9))
    dram_ratio = (cells["dram/software"].breakdown["memory"]
                  / max(cells["dram/halo"].breakdown["memory"], 1e-9))
    checks = [
        PaperCheck("data access speedup in LLC", "4.1x",
                   f"{llc_ratio:.1f}x", holds=2.8 <= llc_ratio <= 5.5),
        PaperCheck("data access speedup in DRAM", "1.6x",
                   f"{dram_ratio:.1f}x", holds=1.2 <= dram_ratio <= 2.2),
        PaperCheck("software locking overhead", "present (13.1%)",
                   f"{cells['llc/software'].breakdown['locking']:.0f} "
                   f"cycles/lookup",
                   holds=cells["llc/software"].breakdown["locking"]
                   >= READ_SIDE_CYCLES * 0.9),
        PaperCheck("HALO locking overhead", "none (hardware lock bits)",
                   f"{cells['llc/halo'].breakdown['locking']:.0f}",
                   holds=cells["llc/halo"].breakdown["locking"] == 0.0),
    ]
    sections = [table, render_checks("Figure 10", checks)]
    for scenario in ("llc", "dram"):
        cell = cells[f"{scenario}/halo"]
        lines = [f"traceable metrics ({scenario} scenario):"]
        for name, summary in sorted(cell.registry_metrics.items()):
            lines.append(
                f"  {name}: n={summary['count']} "
                f"mean={summary['mean']:.1f} p50={summary['p50']:.1f} "
                f"p95={summary['p95']:.1f} p99={summary['p99']:.1f}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "fig10",
    "artifact": "Figure 10",
    "slug": "fig10_latency_breakdown",
    "title": "lookup latency breakdown (LLC/DRAM)",
    "grid": [("default", {"table_entries": 1 << 16, "lookups": 200},
              {"table_entries": 1 << 13, "lookups": 60})],
}


def bench_run(label, params, seed):
    del label, seed
    return run(table_entries=params["table_entries"],
               lookups=params["lookups"])


def bench_report(payloads):
    return report(payloads["default"])

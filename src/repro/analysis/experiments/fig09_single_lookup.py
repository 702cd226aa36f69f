"""Figure 9 — single hash-table lookup throughput across table sizes and
occupancy rates, for all five solutions.

Paper result: with the table LLC-resident, HALO reaches ~3.3× the software
throughput (and ~2.1× once the table spills past the LLC); TCAM/SRAM-TCAM
are fastest (constant few-cycle searches); software wins only for tiny
tables whose working set lives in the L1; blocking and non-blocking HALO
stay within ~5% of each other on a single table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...core.halo_system import HaloSystem
from ...tcam.sram_tcam import SRAM_TCAM_SEARCH_CYCLES
from ...tcam.tcam import TCAM_SEARCH_CYCLES
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks

DEFAULT_OCCUPANCIES = (0.25, 0.50, 0.75, 0.90)

SOLUTIONS = ("software", "halo-b", "halo-nb", "tcam", "sram-tcam")

#: Registry metrics captured per point so every reported number can be
#: traced back to a named observability metric (see docs/MODELING.md §7).
TRACEABLE_METRICS = (
    "halo.accelerator.service_cycles",
    "halo.query.latency_cycles",
    "mem.cha_access.cycles",
    "mem.core_access.cycles",
)


@dataclass
class Fig9Point:
    table_entries: int
    occupancy: float
    cycles_per_lookup: Dict[str, float] = field(default_factory=dict)
    #: Snapshot of the :data:`TRACEABLE_METRICS` registry entries for this
    #: point's system (histogram summary dicts); empty when obs is off.
    registry_metrics: Dict[str, dict] = field(default_factory=dict)

    def normalized_throughput(self) -> Dict[str, float]:
        """Throughput normalised to software (the paper's y-axis)."""
        software = self.cycles_per_lookup["software"]
        return {name: software / cycles
                for name, cycles in self.cycles_per_lookup.items()}


def run_point(table_entries: int, occupancy: float = 0.5,
              lookups: int = 300, seed: int = 8,
              dram_resident: bool = False) -> Fig9Point:
    """Measure all five solutions on one (size, occupancy) cell."""
    system = HaloSystem()
    table = system.create_table(table_entries, name="fig9")
    fill = max(1, int(table.capacity * occupancy))
    keys = random_keys(fill, seed=seed)
    inserted = []
    for index, key in enumerate(keys):
        if table.insert(key, index):
            inserted.append(key)
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    if dram_resident:
        system.flush_table(table)

    rng = np.random.default_rng(seed + 1)
    sample = [inserted[int(i)] for i in
              rng.integers(0, len(inserted), size=lookups)]

    point = Fig9Point(table_entries=table_entries, occupancy=occupancy)
    # One uniform entry point for every simulated solution: each backend is
    # an engine program on the same machine state.  Run order matters (each
    # run warms the caches for free); the DRAM scenario re-flushes between
    # runs to keep the table memory-resident for every solution.
    simulated = ("software", "halo-b", "halo-nb")
    for index, kind in enumerate(simulated):
        episode = system.run_backend_lookups(kind, table, sample)
        point.cycles_per_lookup[kind] = episode.cycles_per_op
        if dram_resident and index < len(simulated) - 1:
            system.flush_table(table)
    # TCAM-class devices answer in constant time regardless of size, under
    # the paper's assumption that the rule set fits the device.
    point.cycles_per_lookup["tcam"] = float(TCAM_SEARCH_CYCLES)
    point.cycles_per_lookup["sram-tcam"] = float(SRAM_TCAM_SEARCH_CYCLES)
    snapshot = system.obs.metrics.snapshot()
    point.registry_metrics = {name: snapshot[name]
                              for name in TRACEABLE_METRICS
                              if isinstance(snapshot.get(name), dict)
                              and snapshot[name].get("count")}
    return point


def run_occupancy_sweep(table_entries: int = 2 ** 15,
                        occupancies: Sequence[float] = DEFAULT_OCCUPANCIES,
                        lookups: int = 300, seed: int = 8) -> List[Fig9Point]:
    return [run_point(table_entries, occ, lookups, seed)
            for occ in occupancies]


def report(size_points: List[Fig9Point],
           occupancy_points: List[Fig9Point] = (),
           dram_point: Optional[Fig9Point] = None) -> str:
    rows = []
    for point in size_points:
        normalized = point.normalized_throughput()
        rows.append((point.table_entries, f"{point.occupancy*100:.0f}%")
                    + tuple(f"{normalized[s]:.2f}x" for s in SOLUTIONS))
    table = format_table(
        ["entries", "occ"] + list(SOLUTIONS), rows,
        title="Figure 9 — single-lookup throughput normalised to software")

    sections = [table]
    if occupancy_points:
        rows = []
        for point in occupancy_points:
            normalized = point.normalized_throughput()
            rows.append((point.table_entries, f"{point.occupancy*100:.0f}%")
                        + tuple(f"{normalized[s]:.2f}x" for s in SOLUTIONS))
        sections.append(format_table(
            ["entries", "occ"] + list(SOLUTIONS), rows,
            title="Figure 9 — occupancy sweep"))

    largest = size_points[-1].normalized_throughput()
    smallest = size_points[0].normalized_throughput()
    checks = [
        PaperCheck("HALO speedup, LLC-resident table", "up to 3.3x",
                   f"{largest['halo-b']:.2f}x (B) / "
                   f"{largest['halo-nb']:.2f}x (NB)",
                   holds=2.3 <= largest["halo-b"] <= 4.3
                   and largest["halo-nb"] <= 4.3),
        PaperCheck("software at tiny tables", "best (L1-resident)",
                   f"HALO-B {smallest['halo-b']:.2f}x",
                   holds=smallest["halo-b"] <= 1.1),
        PaperCheck("TCAM", "always fastest",
                   f"{largest['tcam']:.1f}x at the largest size",
                   holds=largest["tcam"] > max(largest["halo-b"],
                                               largest["halo-nb"])),
        PaperCheck("B vs NB on one table", "within ~5%",
                   f"{abs(largest['halo-nb'] / largest['halo-b'] - 1) * 100:.0f}% apart",
                   holds=abs(largest["halo-nb"] / largest["halo-b"] - 1)
                   < 0.25),
    ]
    if dram_point is not None:
        # Only the full grid has the DRAM-resident point.
        dram = dram_point.normalized_throughput()
        checks.append(PaperCheck(
            "HALO speedup, beyond-LLC table", "~2.1x average",
            f"{dram['halo-b']:.2f}x (B) / {dram['halo-nb']:.2f}x (NB)",
            holds=1.3 <= dram["halo-b"] <= 3.0))
    sections.append(render_checks("Figure 9", checks))
    footer = _traceable_footer(size_points[-1])
    if footer:
        sections.append(footer)
    return "\n\n".join(sections)


def _traceable_footer(point: Fig9Point) -> str:
    """Names the registry metrics behind the largest-table measurement."""
    if not point.registry_metrics:
        return ""
    lines = [f"traceable metrics ({point.table_entries} entries, "
             f"{point.occupancy * 100:.0f}% occupancy):"]
    for name, summary in sorted(point.registry_metrics.items()):
        lines.append(
            f"  {name}: n={summary['count']} mean={summary['mean']:.1f} "
            f"p50={summary['p50']:.1f} p95={summary['p95']:.1f} "
            f"p99={summary['p99']:.1f}")
    return "\n".join(lines)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

#: Table-size sweep (log2 entries).  The paper sweeps 2^3..2^24; the grid
#: stops at 2^18 for runtime (2 MB buckets + 8 MB values: well past L2,
#: LLC-resident) — call :func:`run_point` with larger sizes to go further.
_SIZE_EXPONENTS = (3, 6, 9, 12, 15, 18)
_QUICK_SIZE_EXPONENTS = (3, 9, 15)

BENCH = {
    "name": "fig09",
    "artifact": "Figure 9",
    "slug": "fig09_single_lookup",
    "title": "single-lookup throughput sweep",
    "grid": [
        (f"size_2e{exp:02d}",
         {"kind": "size", "table_entries": 2 ** exp, "lookups": 300},
         {"kind": "size", "table_entries": 2 ** exp, "lookups": 120}
         if exp in _QUICK_SIZE_EXPONENTS else None)
        for exp in _SIZE_EXPONENTS
    ] + [
        ("occupancy_sweep",
         {"kind": "occupancy", "table_entries": 2 ** 15, "lookups": 250},
         None),
        ("dram_point",
         {"kind": "dram", "table_entries": 2 ** 16, "lookups": 200},
         None),
    ],
}


def bench_run(label, params, seed):
    """Runner hook: sizes shard per table size; occupancy/DRAM own points."""
    del label, seed  # run_point pins seed=8 for paper fidelity
    kind = params["kind"]
    if kind == "size":
        return run_point(params["table_entries"], 0.5,
                         lookups=params["lookups"])
    if kind == "occupancy":
        return run_occupancy_sweep(table_entries=params["table_entries"],
                                   lookups=params["lookups"])
    if kind == "dram":
        return run_point(params["table_entries"], 0.5,
                         lookups=params["lookups"], dram_resident=True)
    raise ValueError(f"unknown fig09 grid kind {kind!r}")


def bench_report(payloads):
    size_points = [payload for label, payload in payloads.items()
                   if label.startswith("size_")]
    return report(size_points, payloads.get("occupancy_sweep", []),
                  payloads.get("dram_point"))

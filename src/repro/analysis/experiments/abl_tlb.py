"""Ablation — D-TLB page size: why DPDK tables live on hugepages.

The paper's testbed (Table 2, §5) follows DPDK practice and backs its
hash tables with contiguous hugepage memory, so address translation is
effectively free.  This ablation turns the D-TLB model on and compares
4 KB pages, 2 MB hugepages, and perfect translation for the same
LLC-resident table.  HALO is immune either way: the accelerator's
queries carry already-translated addresses (§4.2), so only the software
path pays for translation misses.
"""

from __future__ import annotations

from typing import List, Tuple

from ...core.halo_system import HaloSystem
from ...sim.params import SKYLAKE_SP_16C
from ...sim.tlb import TlbParams
from ...traffic.generator import random_keys

#: (display name, TlbParams-or-None) — ``None`` is perfect translation.
PAGE_CONFIGS = (
    ("perfect (paper default)", None),
    ("2MB hugepages (DPDK)", "hugepages"),
    ("4KB pages", "small_pages"),
)


def run(table_entries: int = 1 << 16, flows: int = 40_000,
        lookups: int = 250, seed: int = 31
        ) -> List[Tuple[str, float, float, float]]:
    """``(config name, software cyc, HALO cyc, TLB miss rate)`` rows."""
    rows: List[Tuple[str, float, float, float]] = []
    for name, factory in PAGE_CONFIGS:
        tlb = getattr(TlbParams, factory)() if factory else None
        system = HaloSystem(SKYLAKE_SP_16C.scaled(tlb=tlb))
        table = system.create_table(table_entries, name="tlb_abl")
        keys = random_keys(flows, seed=seed)
        table.insert_many(zip(keys, range(len(keys))))
        system.warm_table(table)
        system.hierarchy.flush_private(0)
        software = system.run_software_lookups(table, keys[:lookups])
        halo = system.run_blocking_lookups(table,
                                           keys[lookups:2 * lookups])
        miss_rate = (system.hierarchy.tlbs[0].stats.miss_rate
                     if system.hierarchy.tlbs else 0.0)
        rows.append((name, software.cycles_per_op, halo.cycles_per_op,
                     miss_rate))
    return rows


def report(rows: List[Tuple[str, float, float, float]]) -> str:
    lines = ["Ablation — D-TLB page size (software vs HALO cyc/lookup):"]
    lines += [f"  {name:24s} sw {software:6.1f}  halo {halo:5.1f}  "
              f"(TLB miss {miss:.1%})"
              for name, software, halo, miss in rows]
    lines.append("  hugepages make translation free; HALO is immune "
                 "either way")
    return "\n".join(lines)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "abl_tlb",
    "artifact": "§4.2 ablation (TLB)",
    "slug": "ablation_tlb",
    "title": "page size / TLB reach ablation",
    "grid": [("default",
              {"table_entries": 1 << 16, "flows": 40_000, "lookups": 250,
               "seed": 31},
              {"table_entries": 1 << 14, "flows": 8_000, "lookups": 100,
               "seed": 31})],
}


def bench_run(label, params, seed):
    del label, seed
    return run(table_entries=params["table_entries"],
               flows=params["flows"], lookups=params["lookups"],
               seed=params["seed"])


def bench_report(payloads):
    return report(payloads["default"])

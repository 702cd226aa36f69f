"""Figure 4 — cuckoo hash vs single-function hash (SFH) cache behaviour.

Paper result: cuckoo keeps table occupancy ~95% vs SFH's ~20%; with up to
millions of flows cuckoo's loads still mostly hit the LLC, while SFH's
larger footprint starts missing the LLC around 100K flows, stalling the
CPU.  Metrics: L2/LLC misses per thousand retired loads (MPKL) and the
stall-cycle fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...hashtable.cuckoo import CuckooHashTable
from ...hashtable.single_hash import SingleHashTable
from ...sim.core import CoreModel
from ...sim.hierarchy import MemoryHierarchy
from ...sim.stats import mpkl
from ...sim.trace import Tracer
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks

import numpy as np

#: Flow counts swept (the paper goes to 4M; we default to 400K for runtime
#: — the SFH LLC cliff appears at the same ~100K point either way).
DEFAULT_FLOW_COUNTS = (1_000, 10_000, 100_000, 400_000)


@dataclass
class Fig4Row:
    table_kind: str
    num_flows: int
    utilisation: float
    l2_mpkl: float
    llc_mpkl: float
    stall_fraction: float
    cycles_per_lookup: float


def achievable_occupancy(kind: str, slots: int = 8192,
                         seed: int = 5) -> float:
    """Fill a table with random keys until placement fails; return the
    occupancy reached.  Cuckoo displacement sustains ~95%; a single-choice
    table overflows its first bucket at a small fraction of capacity
    (paper §3.3: ~95% vs ~20%)."""
    keys = random_keys(slots + 64, seed=seed)
    if kind == "cuckoo":
        table = CuckooHashTable(slots)
        for index, key in enumerate(keys):
            if not table.insert(key, index):
                break
        return table.load_factor
    table = SingleHashTable(slots // 8, buckets_per_key=1.0)
    for index, key in enumerate(keys):
        table.insert(key, index)
        if table.stats.overflows:
            break
    return table.load_factor


def _measure(table, hierarchy: MemoryHierarchy, tracer: Tracer,
             keys: List[bytes], lookups: int, seed: int = 5) -> tuple:
    """(l2_mpkl, llc_mpkl, stall_fraction, cycles/lookup) for a key stream."""
    core = CoreModel(0, hierarchy)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, len(keys), size=lookups)
    # Steady state: the table has been serving traffic, so as much of it as
    # fits is LLC-resident (a table bigger than the LLC self-evicts during
    # this sweep — exactly the SFH regime).
    layout = table.layout
    hierarchy.warm_llc(layout.buckets.base, layout.buckets.size)
    hierarchy.warm_llc(layout.key_values.base, layout.key_values.size)
    hierarchy.flush_private(0)
    for index in indices[:lookups // 4]:
        tracer.begin()
        table.lookup(keys[int(index)])
        core.execute(tracer.take())
    hierarchy.reset_stats()
    retired_loads = 0
    total_cycles = 0.0
    memory_cycles = 0.0
    for index in indices[lookups // 4:]:
        tracer.begin()
        table.lookup(keys[int(index)])
        trace = tracer.take()
        retired_loads += trace.mix.loads
        result = core.execute(trace)
        total_cycles += result.cycles
        memory_cycles += result.memory_cycles
    l2_misses = sum(cache.stats.misses for cache in hierarchy.l2)
    llc_misses = sum(cache.stats.misses for cache in hierarchy.llc)
    measured = lookups - lookups // 4
    return (mpkl(l2_misses, retired_loads),
            mpkl(llc_misses, retired_loads),
            memory_cycles / total_cycles if total_cycles else 0.0,
            total_cycles / measured)


def run(flow_counts=DEFAULT_FLOW_COUNTS, lookups: int = 1_200,
        seed: int = 5) -> List[Fig4Row]:
    rows: List[Fig4Row] = []
    for count in flow_counts:
        keys = random_keys(count, seed=seed)
        for kind in ("cuckoo", "sfh"):
            hierarchy = MemoryHierarchy()
            tracer = Tracer()
            if kind == "cuckoo":
                # DPDK-style sizing: capacity close to the key count, the
                # high-occupancy regime cuckoo hashing enables (~95%).
                table = CuckooHashTable(int(count / 0.90) + 8,
                                        allocator=hierarchy.allocator,
                                        tracer=tracer)
            else:
                table = SingleHashTable(count,
                                        allocator=hierarchy.allocator,
                                        tracer=tracer)
            for index, key in enumerate(keys):
                table.insert(key, index)
            hierarchy.flush_private(0)
            l2, llc, stall, cycles = _measure(
                table, hierarchy, tracer, keys, lookups, seed=seed)
            rows.append(Fig4Row(
                table_kind=kind, num_flows=count,
                utilisation=table.load_factor,
                l2_mpkl=l2, llc_mpkl=llc, stall_fraction=stall,
                cycles_per_lookup=cycles))
    return rows


def report(rows: List[Fig4Row]) -> str:
    table = format_table(
        ["table", "flows", "util", "L2 MPKL", "LLC MPKL", "stall%",
         "cyc/lookup"],
        [(r.table_kind, r.num_flows, f"{r.utilisation*100:.0f}%",
          r.l2_mpkl, r.llc_mpkl, f"{r.stall_fraction*100:.0f}%",
          r.cycles_per_lookup) for r in rows],
        title="Figure 4 — hash-table cache behaviour (cuckoo vs SFH)")

    biggest = max(r.num_flows for r in rows)
    cuckoo_big = next(r for r in rows
                      if r.table_kind == "cuckoo" and r.num_flows == biggest)
    sfh_big = next(r for r in rows
                   if r.table_kind == "sfh" and r.num_flows == biggest)
    sfh_100k = next((r for r in rows if r.table_kind == "sfh"
                     and r.num_flows >= 100_000), None)
    if sfh_100k is None:
        # A grid that stops short of 100K flows (quick mode) cannot show
        # the SFH cliff: report the check as not measured.
        sfh_measured = f"not run: grid stops at {biggest} flows"
        sfh_holds = None
    else:
        sfh_measured = f"{sfh_100k.llc_mpkl:.1f} MPKL"
        sfh_holds = ((sfh_100k.llc_mpkl > cuckoo_big.llc_mpkl * 3
                      or sfh_100k.llc_mpkl > 5.0)
                     and sfh_big.llc_mpkl > cuckoo_big.llc_mpkl)
    cuckoo_max = achievable_occupancy("cuckoo")
    sfh_max = achievable_occupancy("sfh")
    checks = [
        PaperCheck("cuckoo achievable occupancy", "~95%",
                   f"{cuckoo_max*100:.0f}%",
                   holds=cuckoo_max > 0.85),
        PaperCheck("SFH occupancy at first overflow", "~20%",
                   f"{sfh_max*100:.0f}%",
                   holds=sfh_max < 0.45),
        PaperCheck("cuckoo LLC misses at max flows", "near zero",
                   f"{cuckoo_big.llc_mpkl:.1f} MPKL",
                   holds=cuckoo_big.llc_mpkl < 5.0),
        PaperCheck("SFH LLC misses from 100K flows", "significant",
                   sfh_measured, holds=sfh_holds),
        PaperCheck("SFH stalls more than cuckoo at max flows",
                   "SFH misses stall the CPU",
                   f"{sfh_big.stall_fraction*100:.0f}% vs "
                   f"{cuckoo_big.stall_fraction*100:.0f}% of cycles stalled",
                   holds=sfh_big.stall_fraction
                   > cuckoo_big.stall_fraction),
    ]
    return table + "\n\n" + render_checks("Figure 4", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "fig04",
    "artifact": "Figure 4",
    "slug": "fig04_hash_analysis",
    "title": "cuckoo vs SFH cache behaviour",
    "grid": [
        (f"flows_{count}",
         {"flow_counts": [count], "lookups": 1_200},
         {"flow_counts": [count], "lookups": 400} if count <= 10_000
         else None)
        for count in DEFAULT_FLOW_COUNTS
    ],
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one flow-count column of Figure 4."""
    del label, seed
    return run(flow_counts=tuple(params["flow_counts"]),
               lookups=params["lookups"])


def bench_report(payloads):
    """Runner hook: concatenate the per-flow-count row pairs, grid order."""
    return report([row for rows in payloads.values() for row in rows])

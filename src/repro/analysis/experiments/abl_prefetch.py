"""Ablation — how far can *software* prefetch batching go?

The paper's software baseline is "highly optimized with software
prefetching" (rte_hash, §5).  This ablation models an idealised
``lookup_bulk`` whose same-stage misses overlap perfectly up to the
MSHRs, and asks what of HALO's advantage survives:

* pure single-table *throughput*: idealised batching closes most of the
  gap (real DPDK bulk gets part of this);
* *latency* (a packet needs this lookup now): blocking software cannot
  batch — HALO-B (§4.1) keeps its ~3×;
* private-cache pollution (Figure 12), locking (§3.4), and TSS fan-out
  (Figure 11) are untouched by prefetching.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ...core.halo_system import HaloSystem
from ...traffic.generator import random_keys

DEFAULT_BATCHES = (2, 4, 8, 16)


def run(table_entries: int = 1 << 16, flows: int = 40_000,
        sample: int = 400, batches: Sequence[int] = DEFAULT_BATCHES,
        seed: int = 21) -> List[Tuple[str, float]]:
    """``(solution name, cycles/lookup)`` rows for an LLC-resident table."""
    system = HaloSystem()
    table = system.create_table(table_entries, name="prefetch_ablation")
    keys = random_keys(flows, seed=seed)
    table.insert_many(zip(keys, range(len(keys))))
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    workload = keys[:sample]

    serial = system.run_software_lookups(table, workload)
    rows = [("software serial", serial.cycles_per_op)]
    for batch in batches:
        engine = system.software_engine()
        _values, cycles = engine.lookup_bulk(table, workload, batch=batch)
        rows.append((f"software bulk x{batch}", cycles / len(workload)))
    blocking = system.run_blocking_lookups(table, workload)
    rows.append(("HALO LOOKUP_B", blocking.cycles_per_op))
    nonblocking = system.run_nonblocking_lookups(table, workload)
    rows.append(("HALO LOOKUP_NB", nonblocking.cycles_per_op))
    return rows


def report(rows: List[Tuple[str, float]]) -> str:
    lines = ["Ablation — software prefetch batching vs HALO "
             "(cycles/lookup, LLC-resident table):"]
    lines += [f"  {name:20s} {cycles:7.1f}" for name, cycles in rows]
    lines.append("  idealised bulk batching approaches HALO's throughput;")
    lines.append("  HALO's remaining edge: latency, zero private-cache")
    lines.append("  pollution (Fig.12), no locking (§3.4), TSS fan-out "
                 "(Fig.11)")
    return "\n".join(lines)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "abl_prefetch",
    "artifact": "§5 ablation (software prefetch)",
    "slug": "ablation_software_prefetch",
    "title": "software prefetch batching ablation",
    "grid": [("default",
              {"table_entries": 1 << 16, "flows": 40_000, "sample": 400,
               "batches": [2, 4, 8, 16], "seed": 21},
              {"table_entries": 1 << 14, "flows": 8_000, "sample": 120,
               "batches": [4, 16], "seed": 21})],
}


def bench_run(label, params, seed):
    del label, seed
    return run(table_entries=params["table_entries"],
               flows=params["flows"], sample=params["sample"],
               batches=tuple(params["batches"]), seed=params["seed"])


def bench_report(payloads):
    return report(payloads["default"])

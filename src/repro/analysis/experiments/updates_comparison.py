"""Rule-update cost: cuckoo hash vs TCAM (paper §1 / §2.2 / ref [67]).

One of the paper's arguments against TCAM (beyond power) is update cost:
"it involves expensive and inflexible update operations".  A TCAM keeps
rules physically sorted by priority, so installing a high-priority rule
shuffles existing entries; a cuckoo table absorbs inserts with an amortised
handful of displacements and supports in-place deletes.

This experiment installs the same priority-diverse rule stream into both
structures and compares per-update costs — completing the TCAM comparison
story alongside Table 4 (power) and Figure 9 (lookup latency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core.halo_system import HaloSystem
from ...hashtable.locking import WRITE_SIDE_CYCLES
from ...tcam.tcam import Tcam, TernaryRule
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks


@dataclass
class UpdateCostResult:
    updates: int
    cuckoo_mean_cycles: float
    cuckoo_p99_cycles: float
    cuckoo_kicks_per_insert: float
    tcam_mean_cycles: float
    tcam_p99_cycles: float
    tcam_moves_per_install: float


def run(updates: int = 2_000, prefill: float = 0.70,
        seed: int = 17) -> UpdateCostResult:
    system = HaloSystem()
    table = system.create_table(max(updates * 4, 4096), name="updates")
    prefill_keys = random_keys(int(table.capacity * prefill), seed=seed)
    table.insert_many(zip(prefill_keys, range(len(prefill_keys))))
    system.warm_table(table)
    engine = system.software_engine(core_id=0)

    fresh = random_keys(updates + 16, seed=seed + 1)
    cuckoo_costs = []
    kicks_before = table.stats.kicks
    for index in range(updates):
        _ok, result = engine.insert(table, fresh[index], index)
        cuckoo_costs.append(result.cycles + WRITE_SIDE_CYCLES)
    kicks = table.stats.kicks - kicks_before

    rng = np.random.default_rng(seed + 2)
    tcam = Tcam(capacity_rules=updates + 16)
    tcam_costs = []
    moves_before = tcam.stats.update_moves
    for index in range(updates):
        priority = int(rng.integers(0, 1 << 16))
        tcam_costs.append(tcam.install(
            TernaryRule(value=index, mask=0xFFFF, priority=priority)))
    moves = tcam.stats.update_moves - moves_before

    cuckoo_costs.sort()
    tcam_costs.sort()
    p99 = max(1, int(len(cuckoo_costs) * 0.99) - 1)
    return UpdateCostResult(
        updates=updates,
        cuckoo_mean_cycles=float(np.mean(cuckoo_costs)),
        cuckoo_p99_cycles=float(cuckoo_costs[p99]),
        cuckoo_kicks_per_insert=kicks / updates,
        tcam_mean_cycles=float(np.mean(tcam_costs)),
        tcam_p99_cycles=float(tcam_costs[p99]),
        tcam_moves_per_install=moves / updates,
    )


def report(result: UpdateCostResult) -> str:
    table = format_table(
        ["structure", "mean cyc/update", "p99 cyc/update", "work/update"],
        [
            ("cuckoo (software)", result.cuckoo_mean_cycles,
             result.cuckoo_p99_cycles,
             f"{result.cuckoo_kicks_per_insert:.2f} kicks"),
            ("TCAM", result.tcam_mean_cycles, result.tcam_p99_cycles,
             f"{result.tcam_moves_per_install:.0f} entry moves"),
        ],
        title=f"Rule updates — cuckoo vs TCAM "
              f"({result.updates} priority-diverse installs)")
    checks = [
        PaperCheck("TCAM updates", "expensive and inflexible [67]",
                   f"mean {result.tcam_mean_cycles:.0f} cycles, "
                   f"{result.tcam_moves_per_install:.0f} moves/install, "
                   f"growing with table size",
                   holds=result.tcam_mean_cycles
                   > result.cuckoo_mean_cycles),
        PaperCheck("cuckoo updates", "decent lookup AND update perf (§2.2)",
                   f"mean {result.cuckoo_mean_cycles:.0f} cycles, "
                   f"{result.cuckoo_kicks_per_insert:.2f} kicks/insert",
                   holds=result.cuckoo_kicks_per_insert < 2.0),
        PaperCheck("tail behaviour", "TCAM worst case scales with rules",
                   f"p99: TCAM {result.tcam_p99_cycles:.0f} vs cuckoo "
                   f"{result.cuckoo_p99_cycles:.0f}",
                   holds=result.tcam_p99_cycles
                   > result.cuckoo_p99_cycles),
    ]
    return table + "\n\n" + render_checks("rule updates", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "updates",
    "artifact": "§2.2 extension (updates)",
    "slug": "update_costs",
    "title": "rule-update cost: cuckoo vs TCAM",
    "grid": [("default", {"updates": 2_000}, {"updates": 400})],
}


def bench_run(label, params, seed):
    del label, seed
    return run(updates=params["updates"])


def bench_report(payloads):
    return report(payloads["default"])

"""Table 1 — instruction count and category mix of a single lookup, plus
the §3.4 locking-overhead measurement.

Paper result: ~210 instructions per cuckoo lookup — 48.1% memory
(36.2% load / 11.8% store), 21.0% arithmetic, 30.9% other — and the
optimistic-locking scheme costs 13.1% of total execution time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core.halo_system import HaloSystem
from ...hashtable.locking import READ_SIDE_CYCLES
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks


@dataclass
class Tab1Result:
    instructions_per_lookup: float
    load_fraction: float
    store_fraction: float
    memory_fraction: float
    arithmetic_fraction: float
    others_fraction: float
    locking_share: float        # of total lookup execution time


def run(lookups: int = 600, table_entries: int = 1 << 16,
        seed: int = 6) -> Tab1Result:
    system = HaloSystem()
    table = system.create_table(table_entries)
    keys = random_keys(int(table_entries * 0.7), seed=seed)
    table.insert_many(zip(keys, range(len(keys))))
    system.warm_table(table)
    system.hierarchy.flush_private(0)

    engine = system.software_engine()
    rng = np.random.default_rng(seed)
    instructions = 0
    loads = stores = arithmetic = others = 0
    total_cycles = 0.0
    for index in rng.integers(0, len(keys), size=lookups):
        table.tracer.begin()
        table.lookup(keys[int(index)])
        trace = table.tracer.take()
        mix = trace.mix
        instructions += mix.total
        loads += mix.loads
        stores += mix.stores
        arithmetic += mix.arithmetic
        others += mix.others
        result = engine.core.execute(trace, lock_cycles=READ_SIDE_CYCLES)
        total_cycles += result.cycles

    total = instructions or 1
    return Tab1Result(
        instructions_per_lookup=instructions / lookups,
        load_fraction=loads / total,
        store_fraction=stores / total,
        memory_fraction=(loads + stores) / total,
        arithmetic_fraction=arithmetic / total,
        others_fraction=others / total,
        locking_share=READ_SIDE_CYCLES * lookups / total_cycles,
    )


def report(result: Tab1Result) -> str:
    table = format_table(
        ["metric", "paper", "measured"],
        [
            ("instructions/lookup", "210", f"{result.instructions_per_lookup:.0f}"),
            ("memory %", "48.1", f"{result.memory_fraction*100:.1f}"),
            ("load %", "36.2", f"{result.load_fraction*100:.1f}"),
            ("store %", "11.8", f"{result.store_fraction*100:.1f}"),
            ("arithmetic %", "21.0", f"{result.arithmetic_fraction*100:.1f}"),
            ("others %", "30.9", f"{result.others_fraction*100:.1f}"),
            ("locking share of exec time (§3.4)", "13.1%",
             f"{result.locking_share*100:.1f}%"),
        ],
        title="Table 1 — per-lookup instruction profile")
    checks = [
        PaperCheck("instruction count", "~210",
                   f"{result.instructions_per_lookup:.0f}",
                   holds=abs(result.instructions_per_lookup - 210) < 25),
        PaperCheck("memory-instruction share", "48.1%",
                   f"{result.memory_fraction*100:.1f}%",
                   holds=abs(result.memory_fraction - 0.481) < 0.03),
        PaperCheck("locking share", "13.1%",
                   f"{result.locking_share*100:.1f}%",
                   holds=abs(result.locking_share - 0.131) < 0.05),
    ]
    return table + "\n\n" + render_checks("Table 1 / §3.4", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "tab01",
    "artifact": "Table 1",
    "slug": "tab01_instructions",
    "title": "per-lookup instruction profile + locking share",
    "grid": [("default", {"lookups": 600}, {"lookups": 200})],
}


def bench_run(label, params, seed):
    del label, seed
    return run(lookups=params["lookups"])


def bench_report(payloads):
    return report(payloads["default"])

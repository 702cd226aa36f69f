"""§3.4 — concurrency overhead of shared flow tables.

Paper observations:

* the software optimistic-locking scheme costs 13.1% of execution time,
  and concurrent cuckoo displacements force reader retries;
* core-to-core communication makes a remote-private-cache access ~2×
  slower than an LLC access, so shared tables want to stay in the LLC.

HALO removes both: queries lock bucket lines in hardware for their own
duration (no read-side software lock, no retries) and always access the
shared table LLC-side.

This experiment runs a reader core against a writer core performing
concurrent inserts (cuckoo moves) on the same table and measures the
reader's per-lookup cost: software (lock + retry on invalidation + lines
bounced into the writer's private cache) vs HALO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core.halo_system import HaloSystem
from ...hashtable.locking import READ_SIDE_CYCLES
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks


@dataclass
class ConcurrencyResult:
    software_cycles_idle: float       # reader alone
    software_cycles_contended: float  # reader vs writer
    software_retry_rate: float        # fraction of reads retried
    software_lock_share: float        # locking cycles / total
    halo_cycles_idle: float
    halo_cycles_contended: float


def run(table_entries: int = 1 << 14, lookups: int = 400,
        writes_per_lookup: int = 2, occupancy: float = 0.80,
        seed: int = 13) -> ConcurrencyResult:
    system = HaloSystem()
    table = system.create_table(table_entries, name="shared")
    keys = random_keys(int(table_entries * occupancy), seed=seed)
    for index, key in enumerate(keys):
        table.insert(key, index)
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    fresh = random_keys(lookups * writes_per_lookup + 64, seed=seed + 1)

    rng = np.random.default_rng(seed + 2)
    sample = [keys[int(i)] for i in rng.integers(0, len(keys),
                                                 size=lookups)]

    # -- software reader, idle --------------------------------------------------
    # The reader shares its core with other per-packet work, so its private
    # caches do not retain table lines between lookups (same steady-state
    # assumption as Figures 11/13).
    engine = system.software_engine(core_id=0)
    idle_cycles = 0.0
    for key in sample:
        system.hierarchy.flush_private(0)
        _value, result = engine.lookup(table, key)
        idle_cycles += result.cycles
    software_idle = idle_cycles / lookups

    # -- software reader vs writer ------------------------------------------------
    writer = system.software_engine(core_id=1)
    contended_cycles = 0.0
    retries = 0
    lock_cycles_total = 0.0
    write_index = 0
    for key in sample:
        system.hierarchy.flush_private(0)
        token = table.lock.read_begin()
        _value, result = engine.lookup(table, key)
        cycles = result.cycles
        # Writer makes progress during the read (SMT siblings / other core).
        for _ in range(writes_per_lookup):
            writer.insert(table, fresh[write_index], write_index)
            write_index += 1
        if not table.lock.read_validate(token):
            # A cuckoo move raced the read: re-probe (Figure 7a).
            retries += 1
            _value, retry_result = engine.lookup(table, key)
            cycles += retry_result.cycles + READ_SIDE_CYCLES
            lock_cycles_total += READ_SIDE_CYCLES
        lock_cycles_total += READ_SIDE_CYCLES
        contended_cycles += cycles
    software_contended = contended_cycles / lookups

    # -- HALO reader ------------------------------------------------------------------
    fresh2 = random_keys(lookups * writes_per_lookup + 64, seed=seed + 3)
    idle = system.run_blocking_lookups(table, sample)
    halo_idle = idle.cycles_per_op
    halo_cycles = 0.0
    write_index = 0
    for key in sample:
        episode = system.run_blocking_lookups(table, [key])
        halo_cycles += episode.cycles
        for _ in range(writes_per_lookup):
            writer.insert(table, fresh2[write_index], write_index)
            write_index += 1
    halo_contended = halo_cycles / lookups

    return ConcurrencyResult(
        software_cycles_idle=software_idle,
        software_cycles_contended=software_contended,
        software_retry_rate=retries / lookups,
        software_lock_share=lock_cycles_total / contended_cycles,
        halo_cycles_idle=halo_idle,
        halo_cycles_contended=halo_contended,
    )


def report(result: ConcurrencyResult) -> str:
    table = format_table(
        ["reader path", "idle cyc/lookup", "contended cyc/lookup",
         "overhead"],
        [
            ("software", result.software_cycles_idle,
             result.software_cycles_contended,
             f"{result.software_cycles_contended / result.software_cycles_idle - 1:+.1%}"),
            ("halo", result.halo_cycles_idle,
             result.halo_cycles_contended,
             f"{result.halo_cycles_contended / result.halo_cycles_idle - 1:+.1%}"),
        ],
        title="§3.4 — shared-table lookup under a concurrent writer")
    software_overhead = (result.software_cycles_contended
                         / result.software_cycles_idle - 1)
    halo_overhead = (result.halo_cycles_contended
                     / result.halo_cycles_idle - 1)
    checks = [
        PaperCheck("software locking share", "13.1% of execution",
                   f"{result.software_lock_share:.1%} "
                   f"(retry rate {result.software_retry_rate:.1%})",
                   holds=0.08 <= result.software_lock_share <= 0.25),
        PaperCheck("contention hurts the software reader",
                   "retries + core-to-core bouncing",
                   f"+{software_overhead:.1%}",
                   holds=software_overhead > 0.02),
        PaperCheck("HALO reader largely immune",
                   "hardware lock bits, LLC-side access",
                   f"{halo_overhead:+.1%}",
                   holds=halo_overhead < software_overhead / 2),
    ]
    return table + "\n\n" + render_checks("§3.4 concurrency", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "sec34",
    "artifact": "§3.4",
    "slug": "sec34_concurrency",
    "title": "shared-table concurrency overhead",
    "grid": [("default", {"table_entries": 1 << 14, "lookups": 400},
              {"table_entries": 1 << 12, "lookups": 120})],
}


def bench_run(label, params, seed):
    del label, seed
    return run(table_entries=params["table_entries"],
               lookups=params["lookups"])


def bench_report(payloads):
    return report(payloads["default"])

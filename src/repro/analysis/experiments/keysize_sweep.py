"""Header-size sweep — §3.4's profiling dimension.

The paper profiles hash-table lookups "with different packet header size
that ranges from 4 to 64 bytes" (the typical sizes of network protocol
headers).  Key size moves three costs at once:

* hashing work (more 8-byte lanes through the hash unit / more software
  hash instructions);
* the key fetch (a 64-byte key spans a full cache line);
* key-value slot size (larger kv entries, more lines per compare).

Software pays all three on the core; HALO pays them at the accelerator,
so the speedup holds (and slightly grows) across header sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ...core.halo_system import HaloSystem
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks

#: §3.4: "the typical sizes of network protocol headers".
DEFAULT_KEY_SIZES = (4, 8, 16, 32, 64)


@dataclass
class KeySizePoint:
    key_bytes: int
    software_cycles: float
    halo_cycles: float

    @property
    def speedup(self) -> float:
        return (self.software_cycles / self.halo_cycles
                if self.halo_cycles else 0.0)


def run_point(key_bytes: int, table_entries: int = 1 << 14,
              lookups: int = 200, seed: int = 29) -> KeySizePoint:
    system = HaloSystem()
    table = system.create_table(table_entries, key_bytes=key_bytes,
                                name=f"k{key_bytes}")
    keys = random_keys(int(table_entries * 0.6), key_bytes=key_bytes,
                       seed=seed)
    table.insert_many(zip(keys, range(len(keys))))
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    rng = np.random.default_rng(seed + 1)
    sample = [keys[int(i)] for i in rng.integers(0, len(keys),
                                                 size=lookups)]
    software = system.run_software_lookups(table, sample)
    blocking = system.run_blocking_lookups(table, sample)
    episode_values = [r.value for r in blocking.results]
    assert episode_values == software.results, "paths disagree"
    return KeySizePoint(key_bytes=key_bytes,
                        software_cycles=software.cycles_per_op,
                        halo_cycles=blocking.cycles_per_op)


def run(key_sizes: Sequence[int] = DEFAULT_KEY_SIZES,
        table_entries: int = 1 << 14, lookups: int = 200,
        seed: int = 29) -> List[KeySizePoint]:
    return [run_point(size, table_entries, lookups, seed)
            for size in key_sizes]


def report(points: List[KeySizePoint]) -> str:
    table = format_table(
        ["key bytes", "software cyc", "HALO-B cyc", "speedup"],
        [(p.key_bytes, p.software_cycles, p.halo_cycles,
          f"{p.speedup:.2f}x") for p in points],
        title="§3.4 — lookup cost vs header/key size (4-64 B)")
    checks = [
        PaperCheck("HALO wins at every header size", "4-64 B profiled",
                   f"{min(p.speedup for p in points):.2f}x - "
                   f"{max(p.speedup for p in points):.2f}x",
                   holds=all(p.speedup > 1.5 for p in points)),
        PaperCheck("cost grows with key size", "more hash/fetch work",
                   f"software {points[0].software_cycles:.0f} -> "
                   f"{points[-1].software_cycles:.0f} cycles",
                   holds=points[-1].software_cycles
                   >= points[0].software_cycles),
    ]
    return table + "\n\n" + render_checks("header-size sweep", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "keysize",
    "artifact": "§3.4 extension (key size)",
    "slug": "keysize_sweep",
    "title": "lookup cost vs header size (4-64 B)",
    "grid": [
        (f"key_{size:02d}B",
         {"key_bytes": size, "lookups": 200, "seed": 29},
         {"key_bytes": size, "lookups": 80, "seed": 29})
        for size in DEFAULT_KEY_SIZES
    ],
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one key size."""
    del label, seed
    return run_point(params["key_bytes"], lookups=params["lookups"],
                     seed=params["seed"])


def bench_report(payloads):
    return report(list(payloads.values()))

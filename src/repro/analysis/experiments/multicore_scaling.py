"""Multi-core switch scaling — §3.4's motivation, measured.

The paper motivates HALO partly by scalability: "to scale up the
throughput of packet processing, the virtual switch usually exploits the
multiple CPU cores", but shared tables bring locking and core-to-core
overheads, and a centralised accelerator "could become the bottleneck in a
multi-core processor".  HALO's answer is one accelerator per LLC slice.

This experiment runs N PMD-style worker cores, each classifying its own
packet stream against its own megaflow tuple space (OVS gives every PMD
thread a private datapath classifier cache), and reports aggregate
throughput:

* **software** — per-core tuple-by-tuple lookups (optimistic locking),
  run as N concurrent software-backend programs via
  :func:`repro.exec.cores.run_cores`: the cores genuinely interleave on
  the shared engine, so LLC/DRAM contention between PMD threads emerges
  instead of being assumed away (with one core the schedule degenerates
  to the old serial walk — identical numbers);
* **HALO-NB** — every core fans its packet's tuple lookups out to the
  distributed accelerators; the DES engine times the true concurrent
  execution, including any contention at the accelerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Sequence

import numpy as np

from ...core.halo_system import HaloSystem
from ...exec.cores import CoreWorkload
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks

DEFAULT_CORE_COUNTS = (1, 2, 4, 8)
ENTRIES_PER_TUPLE = 1024


@dataclass
class ScalingPoint:
    cores: int
    software_packets_per_kcycle: float
    halo_packets_per_kcycle: float

    @property
    def halo_speedup(self) -> float:
        if not self.software_packets_per_kcycle:
            return 0.0
        return (self.halo_packets_per_kcycle
                / self.software_packets_per_kcycle)


def _build_tuples(system: HaloSystem, tuples: int, seed: int):
    tables, keysets = [], []
    for index in range(tuples):
        table = system.create_table(ENTRIES_PER_TUPLE, name=f"mc{index}")
        keys = random_keys(800, seed=seed * 50 + index)
        table.insert_many(zip(keys, range(len(keys))))
        system.warm_table(table)
        tables.append(table)
        keysets.append(keys)
    return tables, keysets


def _packet_keys(rng, keysets, tuples: int) -> List[bytes]:
    hit = int(rng.integers(0, tuples))
    return [keysets[i][int(rng.integers(0, 800))] if i == hit
            else bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
            for i in range(tuples)]


def run_point(cores: int, tuples: int = 10, packets_per_core: int = 20,
              seed: int = 23) -> ScalingPoint:
    # -- software: N concurrent PMD walkers, one software backend per core,
    # pinned via run_cores on one shared engine.  Locking overhead is in the
    # per-lookup cost; LLC/DRAM contention between the walkers is timed by
    # the engine.  Aggregate rate is N / (mean per-packet busy cycles).
    system = HaloSystem()
    rng = np.random.default_rng(seed)
    sw_per_core = [_build_tuples(system, tuples, seed + 7 * core)
                   for core in range(cores)]

    def software_worker(backend, tables, keysets) -> Generator:
        cycles = 0.0
        for _packet in range(packets_per_core):
            system.hierarchy.flush_private(backend.core_id)
            for index, table in enumerate(tables):
                keys = _packet_keys(rng, keysets, tuples)
                outcome = yield from backend.lookup(table, keys[index])
                cycles += outcome.cycles
                if outcome.value is not None:
                    break
        return cycles

    workloads = [
        CoreWorkload(backend="software", core_id=core,
                     program=lambda backend, core=core: software_worker(
                         backend, *sw_per_core[core]),
                     name=f"pmd{core}")
        for core in range(cores)
    ]
    multicore = system.run_cores(workloads)
    per_core_cycles = [result.result / packets_per_core
                       for result in multicore.results]
    mean_cost = float(np.mean(per_core_cycles))
    software_rate = cores / mean_cost * 1000.0

    # -- HALO-NB: N concurrent DES programs; elapsed time is real parallel
    # time, so accelerator contention shows up by construction.  Each core
    # owns its PMD-private tuple tables (as in OVS), spread by the query
    # distributor across all accelerators.
    system = HaloSystem()
    per_core = [_build_tuples(system, tuples, seed + 7 * core)
                for core in range(cores)]
    rng = np.random.default_rng(seed + 1)
    packet_lists = [[_packet_keys(rng, per_core[core][1], tuples)
                     for _ in range(packets_per_core)]
                    for core in range(cores)]

    def worker(core_id: int, packet_keys) -> Generator:
        core_tables = per_core[core_id][0]
        for keys in packet_keys:
            pending = []
            for index, table in enumerate(core_tables):
                process = yield from system.isa.lookup_nb(core_id, table,
                                                          keys[index])
                pending.append(process)
            yield from system.isa.snapshot_read_poll(core_id, pending)
        return []

    start = system.engine.now
    system.run_programs([worker(core, packet_lists[core])
                         for core in range(cores)])
    elapsed = system.engine.now - start
    halo_rate = cores * packets_per_core / elapsed * 1000.0

    return ScalingPoint(cores=cores,
                        software_packets_per_kcycle=software_rate,
                        halo_packets_per_kcycle=halo_rate)


def run(core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
        tuples: int = 10, packets_per_core: int = 20,
        seed: int = 23) -> List[ScalingPoint]:
    return [run_point(cores, tuples, packets_per_core, seed)
            for cores in core_counts]


def report(points: List[ScalingPoint]) -> str:
    base = points[0]
    rows = []
    for point in points:
        rows.append((
            point.cores,
            point.software_packets_per_kcycle,
            f"{point.software_packets_per_kcycle / base.software_packets_per_kcycle:.1f}x",
            point.halo_packets_per_kcycle,
            f"{point.halo_packets_per_kcycle / base.halo_packets_per_kcycle:.1f}x",
            f"{point.halo_speedup:.1f}x"))
    table = format_table(
        ["cores", "sw pkts/kcyc", "sw scaling", "halo pkts/kcyc",
         "halo scaling", "halo/sw"],
        rows,
        title="Multi-core tuple-space-search throughput "
              "(PMD-private tuple tables)")
    last = points[-1]
    checks = [
        PaperCheck("HALO ahead at every core count",
                   "distributed accelerators keep up",
                   f"{min(p.halo_speedup for p in points):.1f}x "
                   f"- {max(p.halo_speedup for p in points):.1f}x",
                   holds=all(p.halo_speedup > 2.0 for p in points)),
        PaperCheck("HALO keeps scaling with cores",
                   "no centralised bottleneck (§4.1 goal 2)",
                   f"{last.halo_packets_per_kcycle / base.halo_packets_per_kcycle:.1f}x "
                   f"at {last.cores} cores",
                   holds=(last.halo_packets_per_kcycle
                          > base.halo_packets_per_kcycle * last.cores * 0.4)),
    ]
    return table + "\n\n" + render_checks("multi-core scaling", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "multicore",
    "artifact": "§3.4 extension (multi-core)",
    "slug": "multicore_scaling",
    "title": "multi-core switch scaling, software vs HALO",
    "grid": [
        (f"cores_{count:02d}",
         {"cores": count, "tuples": 10, "packets_per_core": 20,
          "seed": 23},
         {"cores": count, "tuples": 10, "packets_per_core": 8, "seed": 23}
         if count <= 4 else None)
        for count in DEFAULT_CORE_COUNTS
    ],
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one core count."""
    del label, seed
    return run_point(params["cores"], tuples=params["tuples"],
                     packets_per_core=params["packets_per_core"],
                     seed=params["seed"])


def bench_report(payloads):
    return report(list(payloads.values()))

"""Top-level HALO system: accelerators attached to every CHA, plus a
program-facing facade.

``HaloSystem`` wires the full picture together — simulated machine, memory
hierarchy, one accelerator per LLC slice, the query distributor in the
interconnect, the ISA extension, and the hybrid-mode controller — and offers
episode runners that benchmarks and examples use:

* :meth:`run_blocking_lookups` — a core issuing ``LOOKUP_B`` back to back;
* :meth:`run_nonblocking_lookups` — the batched ``LOOKUP_NB`` +
  ``SNAPSHOT_READ`` idiom;
* :meth:`run_software_lookups` — the DPDK-style software baseline on the
  *same* machine and tables;
* :meth:`run_programs` — arbitrary concurrent DES programs (multi-core).

All episode runners are thin wrappers over :mod:`repro.exec` lookup
backends: every compute mode — software included — is a DES program on the
shared engine, so any mix of modes can also be pinned to cores with
:meth:`run_cores` and contend on the shared memory hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, List, Optional, Sequence

from ..hashtable.cuckoo import CuckooHashTable
from ..obs import Observability, render_metrics_report
from ..sim.engine import Engine
from ..sim.hierarchy import MemoryHierarchy
from ..sim.params import MachineParams, SKYLAKE_SP_16C
from ..sim.stats import throughput_mops
from ..sim.trace import Tracer
from .accelerator import HaloAccelerator
from .distributor import QueryDistributor
from .hybrid import HybridController
from .isa import HaloIsa
from .locking import HardwareLockManager
from .software import SoftwareLookupEngine


@dataclass
class Episode:
    """Outcome of one measured run."""

    operations: int
    cycles: float
    results: List[Any] = field(default_factory=list)

    @property
    def cycles_per_op(self) -> float:
        return self.cycles / self.operations if self.operations else 0.0

    def throughput_mops(self, frequency_ghz: float = 2.1) -> float:
        return throughput_mops(self.operations, self.cycles, frequency_ghz)


def _rate(part: int, whole: int) -> str:
    return f"{part / whole:.1%}" if whole else "n/a"


class HaloSystem:
    """A complete HALO-equipped simulated machine."""

    def __init__(self, machine: Optional[MachineParams] = None) -> None:
        self.machine = machine or SKYLAKE_SP_16C
        self.obs = Observability()
        self.engine = Engine()
        self.hierarchy = MemoryHierarchy(self.machine, obs=self.obs)
        self.lock_manager = HardwareLockManager(
            self.hierarchy, enabled=self.machine.halo.enabled_lock_bits)
        self.accelerators = [
            HaloAccelerator(self.engine, self.hierarchy, slice_id,
                            self.machine.halo, self.lock_manager)
            for slice_id in range(self.machine.llc_slices)
        ]
        self.distributor = QueryDistributor(
            self.engine, self.hierarchy, self.accelerators)
        self.isa = HaloIsa(self.engine, self.hierarchy, self.distributor)
        # One tracer shared by every table and core: each recording opens
        # and closes inside one plain call within one engine step, so no two
        # are ever open at once.  Outside a recording it is disabled, so
        # filling tables skips the trace API and keeps no trace ops.
        self.tracer = Tracer()
        self.hybrid = HybridController(
            [acc.flow_register for acc in self.accelerators])
        registry = self.obs.metrics
        registry.register_source("halo.hybrid", self._hybrid_source)
        registry.gauge("halo.hybrid.flow_estimate",
                       fn=lambda: self.hybrid.last_estimate)

    def _hybrid_source(self) -> dict:
        out = self.hybrid.stats.as_dict()
        out["mode"] = self.hybrid.mode.value
        out["last_estimate"] = self.hybrid.last_estimate
        return out

    # -- construction helpers -------------------------------------------------
    def create_table(self, capacity: int, key_bytes: int = 16,
                     name: str = "table", **kwargs) -> CuckooHashTable:
        """A cuckoo table allocated in this machine's physical memory."""
        return CuckooHashTable(
            capacity, key_bytes=key_bytes, allocator=self.hierarchy.allocator,
            tracer=self.tracer, name=name, **kwargs)

    def warm_table(self, table: CuckooHashTable) -> None:
        """Install the table's buckets and key-value array into the LLC."""
        layout = table.layout
        self.hierarchy.warm_llc(layout.metadata.base, layout.metadata.size)
        self.hierarchy.warm_llc(layout.buckets.base, layout.buckets.size)
        self.hierarchy.warm_llc(layout.key_values.base, layout.key_values.size)

    def flush_table(self, table: CuckooHashTable) -> None:
        """Evict the table's buckets and key-value array from all caches
        (the DRAM-resident scenario of Figures 9 and 10)."""
        layout = table.layout
        self.hierarchy.flush_region(layout.buckets.base, layout.buckets.size)
        self.hierarchy.flush_region(layout.key_values.base,
                                    layout.key_values.size)

    def software_engine(self, core_id: int = 0) -> SoftwareLookupEngine:
        return SoftwareLookupEngine(self.hierarchy, core_id)

    def backend(self, kind, core_id: int = 0, **kwargs):
        """Build a :class:`~repro.exec.backend.LookupBackend` on this system.

        ``kind`` is a :class:`~repro.exec.backend.BackendKind` or its string
        value (``"software"``, ``"halo-b"``, ``"halo-nb"``, ``"adaptive"``).
        """
        # Imported lazily: repro.exec sits *above* repro.core in the layering
        # (backends drive this facade), so the static edge must point down.
        from ..exec.backend import make_backend
        return make_backend(kind, self, core_id=core_id, **kwargs)

    # -- episode runners -------------------------------------------------------
    def run_program(self, generator: Generator, name: str = "program") -> Episode:
        """Run one DES program to completion; cycles = elapsed engine time."""
        start = self.engine.now
        result = self.engine.run_process(generator, name=name)
        operations = len(result) if isinstance(result, list) else 1
        return Episode(operations=operations,
                       cycles=self.engine.now - start,
                       results=result if isinstance(result, list) else [result])

    def run_programs(self, generators: Sequence[Generator]) -> Episode:
        """Run several programs concurrently (one per core, typically)."""
        start = self.engine.now
        processes = [self.engine.process(g, name=f"program{i}")
                     for i, g in enumerate(generators)]
        self.engine.run()
        results: List[Any] = []
        operations = 0
        for process in processes:
            value = process.result
            if isinstance(value, list):
                results.extend(value)
                operations += len(value)
            else:
                results.append(value)
                operations += 1
        return Episode(operations=operations,
                       cycles=self.engine.now - start, results=results)

    def run_backend_lookups(self, kind, table: CuckooHashTable,
                            keys: Iterable[bytes], core_id: int = 0,
                            **backend_kwargs) -> Episode:
        """One key stream through any backend; cycles = elapsed engine time.

        The uniform entry point behind the mode-specific runners below.
        Episode results are :class:`~repro.exec.backend.LookupOutcome`.
        """
        backend = self.backend(kind, core_id=core_id, **backend_kwargs)
        keys = list(keys)
        return self.run_program(backend.lookup_stream(table, keys),
                                name=f"{backend.kind.value}_stream")

    def run_blocking_lookups(self, table: CuckooHashTable,
                             keys: Iterable[bytes],
                             core_id: int = 0) -> Episode:
        """A core issuing LOOKUP_B for every key, serially."""
        episode = self.run_backend_lookups("halo-b", table, keys,
                                           core_id=core_id)
        episode.results = [outcome.raw for outcome in episode.results]
        return episode

    def run_nonblocking_lookups(self, table: CuckooHashTable,
                                keys: Iterable[bytes],
                                core_id: int = 0) -> Episode:
        """The batched LOOKUP_NB + SNAPSHOT_READ idiom over all keys."""
        episode = self.run_backend_lookups("halo-nb", table, keys,
                                           core_id=core_id)
        episode.results = [outcome.raw for outcome in episode.results]
        return episode

    def run_software_lookups(self, table: CuckooHashTable,
                             keys: Iterable[bytes],
                             core_id: int = 0) -> Episode:
        """The software baseline over the same machine state.

        Scheduled through the engine like every other backend: the cycle
        arithmetic is the pre-DES synchronous sum, but the cost is spent as
        simulated time so software cores can collocate with HALO traffic.
        """
        episode = self.run_backend_lookups("software", table, keys,
                                           core_id=core_id)
        episode.results = [outcome.value for outcome in episode.results]
        return episode

    # -- observability ----------------------------------------------------------
    def report(self) -> str:
        """Per-component breakdown table over every registered metric."""
        return render_metrics_report(
            self.obs.metrics.snapshot(),
            title=f"HaloSystem metrics @ {self.engine.now:.0f} cycles")

    def summary(self) -> str:
        """A human-readable dump of the machine's component statistics."""
        hierarchy = self.hierarchy
        lines = [
            f"HaloSystem: {self.machine.cores} cores, "
            f"{self.machine.llc_slices} LLC slices "
            f"({self.machine.llc_total_bytes >> 20} MB, ring), "
            f"engine @ {self.engine.now:.0f} cycles",
        ]
        l1_stats = [cache.stats for cache in hierarchy.l1]
        l1_accesses = sum(stats.accesses for stats in l1_stats)
        l1_misses = sum(stats.misses for stats in l1_stats)
        llc_stats = [cache.stats for cache in hierarchy.llc]
        llc_accesses = sum(stats.accesses for stats in llc_stats)
        llc_misses = sum(stats.misses for stats in llc_stats)
        lines.append(
            f"  caches: L1D {l1_accesses:,} accesses "
            f"({_rate(l1_misses, l1_accesses)} miss), "
            f"LLC {llc_accesses:,} accesses "
            f"({_rate(llc_misses, llc_accesses)} miss), "
            f"DRAM {hierarchy.dram.stats.accesses:,} accesses")
        active = [acc for acc in self.accelerators if acc.stats.queries]
        total_queries = sum(acc.stats.queries for acc in active)
        if active:
            meta_hits = sum(acc.stats.metadata_hits for acc in active)
            meta_total = meta_hits + sum(acc.stats.metadata_misses
                                         for acc in active)
            mean_service = (sum(acc.stats.service.total for acc in active)
                            / total_queries)
            lines.append(
                f"  accelerators: {len(active)}/{len(self.accelerators)} "
                f"active, {total_queries:,} queries, "
                f"mean service {mean_service:.1f} cycles, "
                f"metadata hit {_rate(meta_hits, meta_total)}")
        else:
            lines.append("  accelerators: idle")
        lines.append(
            f"  distributor: {self.distributor.stats.dispatched:,} "
            f"dispatched, {self.distributor.stats.held_for_busy:,} held "
            f"for busy accelerators")
        lines.append(
            f"  ISA: {self.isa.stats.lookup_b:,} LOOKUP_B, "
            f"{self.isa.stats.lookup_nb:,} LOOKUP_NB, "
            f"{self.isa.stats.snapshot_reads:,} SNAPSHOT_READ")
        lines.append(
            f"  lock bits: {self.lock_manager.stats.lock_operations:,} "
            f"locks, mode {self.hybrid.mode.value}")
        return "\n".join(lines)

    # -- hybrid-mode convenience --------------------------------------------------
    def run_adaptive_lookups(self, table: CuckooHashTable,
                             keys: Iterable[bytes], core_id: int = 0,
                             window: int = 256) -> Episode:
        """Lookups under the hybrid controller, re-evaluated every window."""
        episode = self.run_backend_lookups("adaptive", table, keys,
                                           core_id=core_id, window=window)
        episode.results = [outcome.value for outcome in episode.results]
        return episode

    # -- multi-core entry point ---------------------------------------------------
    def run_cores(self, workloads):
        """Run a mix of per-core backend workloads concurrently.

        ``workloads`` is a sequence of :class:`~repro.exec.cores.
        CoreWorkload`; returns a :class:`~repro.exec.cores.MultiCoreRun`.
        Software and HALO cores share the engine timeline and the memory
        hierarchy, so collocation effects (cache pollution, interconnect
        contention) emerge rather than being modelled separately.
        """
        from ..exec.cores import run_cores
        return run_cores(self, workloads)

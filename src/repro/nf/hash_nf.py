"""Shared base for hash-table-bound network functions (Figure 13).

NAT, prads, and the packet filter all follow the same per-packet shape:

    derive key from header -> hash-table lookup -> small fixed NF work

The lookup dominates, so accelerating it with HALO yields the 2.3-2.7×
end-to-end speedups of Figure 13 (Amdahl-limited by the fixed work).
Each NF can run in software mode (traced cuckoo lookup on the core) or
HALO mode (``LOOKUP_B`` to the accelerators).  Both modes are
:mod:`repro.exec` backends, so the same NF object works synchronously
(:meth:`~repro.nf.base.NetworkFunction.process`) or as a DES program
pinned to a core alongside other workloads.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from ..classifier.flow import FiveTuple
from ..core.halo_system import HaloSystem
from ..sim.trace import InstructionMix
from .base import NetworkFunction, NfStats


class HashTableNetworkFunction(NetworkFunction):
    """An NF whose fast path is one lookup in its own cuckoo table."""

    #: Fixed per-packet work besides the lookup (override per NF).
    MIX = InstructionMix(loads=14, stores=6, arithmetic=12, others=14)
    DEPENDENT_TOUCHES = 1
    INDEPENDENT_TOUCHES = 0

    def __init__(self, system: HaloSystem, table_entries: int,
                 core_id: int = 0, use_halo: bool = False,
                 working_set_bytes: int = 32 * 1024,
                 name: Optional[str] = None, seed: int = 77) -> None:
        super().__init__(system.hierarchy, core_id=core_id,
                         working_set_bytes=working_set_bytes,
                         name=name, seed=seed)
        self.system = system
        self.use_halo = use_halo
        self.table = system.create_table(
            max(8, table_entries), name=f"{self.name}.table")
        self._software_backend = system.backend("software", core_id=core_id)
        self._halo_backend = system.backend("halo-b", core_id=core_id)
        self.lookup_hits = 0
        self.lookup_misses = 0

    @property
    def backend(self):
        """The lookup backend the current mode selects."""
        return self._halo_backend if self.use_halo else self._software_backend

    # -- table management (NF-specific key/value types) ---------------------------
    def populate(self, entries: Iterable[Tuple[bytes, Any]]) -> None:
        for key, value in entries:
            if not self.table.insert(key, value):
                raise RuntimeError(f"{self.name}: table full while populating")
        self.system.warm_table(self.table)

    def key_of(self, flow: FiveTuple) -> bytes:
        """The lookup key for one packet (override to change key shape)."""
        return flow.pack()

    # -- per-packet processing ---------------------------------------------------------
    def lookup_program(self, key: bytes):
        """Program: one table lookup through the current mode's backend;
        returns ``(value, cycles)``."""
        outcome = yield from self.backend.lookup(self.table, key)
        return outcome.value, outcome.cycles

    def _lookup(self, key: bytes) -> Tuple[Any, float]:
        """(value, cycles) for the table lookup in the current mode."""
        return self.system.engine.run_process(
            self.lookup_program(key), name=f"{self.name}.lookup")

    def on_hit(self, flow: FiveTuple, value: Any) -> float:
        """Extra cycles on a hit (e.g. NAT header rewrite). Default: none."""
        return 0.0

    def on_miss(self, flow: FiveTuple) -> float:
        """Extra cycles on a miss (e.g. drop / slow path). Default: none."""
        return 0.0

    def _process_impl(self, flow: FiveTuple) -> float:
        value, lookup_cycles = self._lookup(self.key_of(flow))
        return lookup_cycles + self._fixed_work(flow, value)

    def _program_impl(self, engine, flow: FiveTuple):
        value, lookup_cycles = yield from self.lookup_program(
            self.key_of(flow))
        fixed = self._fixed_work(flow, value)
        if fixed:
            yield engine.timeout(fixed)
        return lookup_cycles + fixed

    def _fixed_work(self, flow: FiveTuple, value: Any) -> float:
        """The non-lookup per-packet cycles (base trace + hit/miss extra)."""
        fixed = self.core.execute(self._base_trace())
        if value is not None:
            self.lookup_hits += 1
            extra = self.on_hit(flow, value)
        else:
            self.lookup_misses += 1
            extra = self.on_miss(flow)
        return fixed.cycles + extra

    # -- the Figure 13 measurement -----------------------------------------------------
    def measure_speedup(self, flows) -> Tuple[NfStats, NfStats, float]:
        """Run the same stream in software and HALO mode; return both stats
        and the throughput speedup HALO/software.

        Models the deployed condition (paper §5.2): the NF shares its core
        with other per-packet work, so its table lines do not linger in
        the private caches between packets — each phase flushes L1/L2
        between packets, leaving the tables LLC-resident.
        """
        flows = list(flows)

        def run_phase() -> NfStats:
            self.stats = NfStats()
            for flow in flows:
                self.hierarchy.flush_private(self.core.core_id)
                self.process(flow)
            return self.stats

        self.use_halo = False
        software = run_phase()
        software_cpp = software.cycles_per_packet
        self.use_halo = True
        halo = run_phase()
        speedup = (software_cpp / halo.cycles_per_packet
                   if halo.cycles_per_packet else 0.0)
        return software, halo, speedup

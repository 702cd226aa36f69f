"""Realising a :class:`~repro.faults.plan.FaultPlan` on a live system.

The injector touches only the sanctioned fault seams:

* ``Engine.add_fault_hook("accelerator.serve", ...)`` — a generator gate
  every accelerator query passes right after winning a scoreboard slot.
  Stalls and outages happen *inside* the slot, so a faulted slice backs up
  exactly like real head-of-line blocking: its busy bit rises and the
  query distributor holds traffic.
* ``Dram.fault_hook`` / ``Interconnect.fault_hook`` — pure per-access
  callbacks adding latency (spikes, retransmits after drops).

No seam places an engine event of its own: the gate only delays the
query that passes it, so an installed plan never extends the engine's
drain time by itself.

Everything observable lands in :class:`FaultStats`, exported through the
metrics registry as the ``faults.*`` pull source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from .plan import FaultKind, FaultPlan

#: Seam name on the engine fault-hook bus for the accelerator gate.
ACCEL_SEAM = "accelerator.serve"


@dataclass
class FaultStats:
    """Everything the injector did, as flat scalars."""

    accel_stalls: int = 0
    accel_stall_cycles: float = 0.0
    outage_delays: int = 0
    outage_cycles: float = 0.0
    dram_spikes: int = 0
    dram_extra_cycles: float = 0.0
    noc_drops: int = 0

    @property
    def injections(self) -> int:
        return (self.accel_stalls + self.outage_delays + self.dram_spikes
                + self.noc_drops)

    def as_dict(self) -> dict:
        """Flat scalar view for the metrics registry (pull source)."""
        return {
            "accel_stalls": self.accel_stalls,
            "accel_stall_cycles": self.accel_stall_cycles,
            "outage_delays": self.outage_delays,
            "outage_cycles": self.outage_cycles,
            "dram_spikes": self.dram_spikes,
            "dram_extra_cycles": self.dram_extra_cycles,
            "noc_drops": self.noc_drops,
            "injections": self.injections,
        }


class FaultInjector:
    """Binds one :class:`FaultPlan` to one ``HaloSystem``.

    Usage::

        injector = FaultInjector(system, plan)
        injector.install()
        ...run workloads...
        injector.uninstall()   # optional; safe to leave installed

    ``install`` rejects a window whose ``slice_id`` the machine lacks.
    """

    def __init__(self, system, plan: FaultPlan) -> None:
        self.system = system
        self.engine = system.engine
        self.plan = plan
        self.stats = FaultStats()
        self._rng = plan.rng()
        self.installed = False

    # -- lifecycle ---------------------------------------------------------
    def install(self) -> "FaultInjector":
        if self.installed:
            return self
        slices = len(self.system.accelerators)
        for window in self.plan.windows:
            if window.slice_id is not None and not (
                    0 <= window.slice_id < slices):
                raise ValueError(
                    f"FaultWindow.slice_id {window.slice_id} outside the "
                    f"machine's slices 0..{slices - 1}")
        self.engine.add_fault_hook(ACCEL_SEAM, self._accel_gate)
        hierarchy = self.system.hierarchy
        hierarchy.dram.fault_hook = self._dram_hook
        hierarchy.interconnect.fault_hook = self._noc_hook
        self.system.obs.metrics.register_source("faults", self._source)
        self.installed = True
        return self

    def uninstall(self) -> None:
        """Detach the hooks."""
        if not self.installed:
            return
        self.engine.remove_fault_hook(ACCEL_SEAM)
        hierarchy = self.system.hierarchy
        hierarchy.dram.fault_hook = None
        hierarchy.interconnect.fault_hook = None
        self.installed = False

    def _source(self) -> dict:
        if not self.stats.injections:
            return {}
        return self.stats.as_dict()

    # -- pure hooks --------------------------------------------------------
    def _accel_gate(self, accelerator) -> Generator:
        """Gate one admitted query: sleep out outages, then pay stalls.

        With no active window this yields nothing — zero events, zero
        cycles — which is what the zero-fault parity test pins.
        """
        engine = self.engine
        slice_id = accelerator.slice_id
        while True:
            outage = next(self.plan.active(FaultKind.ACCEL_OUTAGE,
                                           engine.now, slice_id), None)
            if outage is None:
                break
            remaining = outage.remaining(engine.now)
            self.stats.outage_delays += 1
            self.stats.outage_cycles += remaining
            yield engine.timeout(remaining)
        for window in self.plan.active(FaultKind.ACCEL_STALL,
                                       engine.now, slice_id):
            if (window.probability < 1.0
                    and self._rng.uniform() >= window.probability):
                continue
            self.stats.accel_stalls += 1
            self.stats.accel_stall_cycles += window.magnitude
            yield engine.timeout(window.magnitude)

    def _dram_hook(self, write: bool) -> float:
        extra = 0.0
        for window in self.plan.active(FaultKind.DRAM_SPIKE, self.engine.now):
            if (window.probability < 1.0
                    and self._rng.uniform() >= window.probability):
                continue
            extra += window.magnitude
        if extra:
            self.stats.dram_spikes += 1
            self.stats.dram_extra_cycles += extra
        return extra

    def _noc_hook(self, src: int, dst: int, hops: int) -> float:
        interconnect = self.system.hierarchy.interconnect
        extra = 0.0
        for window in self.plan.active(FaultKind.NOC_DROP, self.engine.now):
            if self._rng.uniform() < window.probability:
                # The message is lost; the retransmit pays the path again.
                self.stats.noc_drops += 1
                extra += hops * interconnect.latency.hop + window.magnitude
        return extra

"""``repro.faults`` — deterministic fault injection for the DES stack.

HALO's evaluation (paper §6) assumes healthy hardware: accelerators always
answer, lock bits always clear, DRAM stays near its nominal latency.  This
package asks the production question — *what happens when they don't* —
without giving up the repo's core property that every run is bit-identical
for a given seed.

Three pieces:

* :class:`~repro.faults.plan.FaultPlan` — a declarative, immutable schedule
  of :class:`~repro.faults.plan.FaultWindow`\\ s (accelerator stalls and
  outages, CHA queue saturation, lock-bit holds, DRAM latency spikes,
  dropped/duplicated NoC messages), plus a seed for the probabilistic
  faults;
* :class:`~repro.faults.injector.FaultInjector` — installs the plan onto a
  live :class:`~repro.core.halo_system.HaloSystem` through the fault seams
  (:meth:`Engine.add_fault_hook`, ``Dram.fault_hook``,
  ``Interconnect.fault_hook``, ``HardwareLockManager.hold``), and exports
  ``faults.*`` counters through ``repro.obs``;
* :class:`~repro.faults.shard_plan.ShardFaultPlan` — the cluster-level
  analogue: which *shard* dies/flaps/straggles on which attempt,
  resolved attempt by attempt by ``run_cluster`` so ``cluster_chaos``
  can kill shards deterministically and exercise RSS failover.

Determinism: all randomness flows through a :class:`SplitMix64` stream
seeded from the plan, and the DES engine is single-threaded with a total
event order — so the same plan + workload replays the exact same fault
decisions, timelines, and counters.  An installed plan with *no* windows
injects nothing and leaves cycle totals bit-identical to an uninstrumented
run (pinned by ``tests/faults``).

Layering: ``faults`` sits above ``exec`` (it drives whole systems) and only
``cluster``/``runner``/``analysis``/root modules may import it — enforced
by ``scripts/check_layering.py``.
"""

from __future__ import annotations

from .plan import FaultKind, FaultPlan, FaultWindow, SplitMix64
from .injector import FaultInjector, FaultStats
from .shard_plan import (
    ShardFaultDecision,
    ShardFaultKind,
    ShardFaultPlan,
    ShardFaultWindow,
)

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultWindow",
    "SplitMix64",
    "FaultInjector",
    "FaultStats",
    "ShardFaultDecision",
    "ShardFaultKind",
    "ShardFaultPlan",
    "ShardFaultWindow",
]

"""Approximate cycle-level multicore simulator (the gem5 substitute).

Public surface:

* :class:`~repro.sim.engine.Engine` — discrete-event kernel.
* :class:`~repro.sim.params.MachineParams` / :data:`SKYLAKE_SP_16C` — machine
  configuration (paper Table 2).
* :class:`~repro.sim.hierarchy.MemoryHierarchy` — L1/L2/NUCA-LLC/DRAM.
* :class:`~repro.sim.core.CoreModel` — OoO core cost model.
* :class:`~repro.sim.trace.Tracer` / :class:`MemTrace` — functional-to-timing
  bridge.
"""

from .cache import Cache, CacheStats
from .calendar import BucketCalendar
from .core import CoreModel, ExecutionResult
from .engine import Engine, Event, Process, Resource, SimulationError, Store
from .hierarchy import AccessResult, MemoryHierarchy
from .interconnect import Interconnect
from .memory import AddressAllocator, Dram, OutOfSimulatedMemory, Region
from .replay import TraceReplay
from .params import (
    CACHE_LINE_BYTES,
    CacheParams,
    CoreParams,
    HaloParams,
    LatencyParams,
    MachineParams,
    SKYLAKE_SP_16C,
    SocketParams,
    TINY_MACHINE,
    Topology,
)
from .tlb import Tlb, TlbParams, TlbStats
from .stats import Breakdown, RunningStats, mpkl, throughput_mops
from .trace import (
    InstructionMix,
    MemOp,
    MemOpKind,
    MemTrace,
    Tracer,
    capture,
)

__all__ = [
    "AccessResult",
    "AddressAllocator",
    "Breakdown",
    "BucketCalendar",
    "CACHE_LINE_BYTES",
    "Cache",
    "CacheParams",
    "CacheStats",
    "CoreModel",
    "CoreParams",
    "Dram",
    "Engine",
    "Event",
    "ExecutionResult",
    "HaloParams",
    "InstructionMix",
    "Interconnect",
    "LatencyParams",
    "MachineParams",
    "MemOp",
    "MemOpKind",
    "MemTrace",
    "MemoryHierarchy",
    "OutOfSimulatedMemory",
    "Process",
    "Region",
    "Resource",
    "RunningStats",
    "SKYLAKE_SP_16C",
    "SimulationError",
    "SocketParams",
    "Store",
    "TINY_MACHINE",
    "Topology",
    "Tlb",
    "TlbParams",
    "TlbStats",
    "TraceReplay",
    "Tracer",
    "capture",
    "mpkl",
    "throughput_mops",
]

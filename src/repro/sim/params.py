"""Machine and latency parameter sets.

The defaults mirror the paper's Table 2 (a Skylake-SP-like part simulated in
gem5): 16 out-of-order cores at 2.1 GHz, 32 KB 8-way L1D, 1 MB 16-way L2,
32 MB 16-way shared LLC split into 16 NUCA slices (one CHA per slice),
DDR4-2400 memory.

Latency anchors are approximate-cycle values calibrated so that the *ratios*
the paper reports hold (see DESIGN.md §5):

* CHA→local-slice data access is ~4.1× faster than core→LLC;
* CHA→DRAM is ~1.6× faster than core→DRAM;
* a software cuckoo lookup costs ~210 instructions (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .tlb import TlbParams

KB = 1024
MB = 1024 * KB
CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class SocketParams:
    """One socket's share of the machine: its core and LLC-slice counts.

    The paper's machine is exactly one of these (16 cores, 16 slices);
    a :class:`Topology` stamps out ``sockets`` copies and bridges them
    with an inter-socket link.
    """

    cores: int = 16
    llc_slices: int = 16

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(
                f"SocketParams.cores must be >= 1 (got {self.cores}); "
                "a socket with no cores cannot run workloads")
        if self.llc_slices < 1:
            raise ValueError(
                f"SocketParams.llc_slices must be >= 1 (got "
                f"{self.llc_slices}); slice hashing needs at least one "
                "LLC slice per socket")


@dataclass(frozen=True)
class Topology:
    """Scale-out description: ``sockets`` identical sockets on a link.

    ``sockets == 1`` is the paper's single-socket world and the default
    everywhere; the inter-socket link parameters are then inert (no
    message ever crosses).  Cross-socket transfers pay ``link_latency``
    cycles per crossing on top of the on-chip hop cost (UPI-like).
    """

    sockets: int = 1
    socket: SocketParams = field(default_factory=SocketParams)
    #: One-way cycles added per inter-socket link crossing.
    link_latency: int = 70
    #: Descriptive per-direction link bandwidth (not charged per byte in
    #: the latency model; recorded so shard-level calculations can use it).
    link_bandwidth_gbps: float = 41.6

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError(
                f"Topology.sockets must be >= 1 (got {self.sockets})")
        if self.link_latency < 0:
            raise ValueError(
                f"Topology.link_latency must be >= 0 (got "
                f"{self.link_latency})")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.socket.cores

    @property
    def total_slices(self) -> int:
        return self.sockets * self.socket.llc_slices

    def socket_of_core(self, core_id: int) -> int:
        """Which socket a (global) core id lives on."""
        return (core_id % self.total_cores) // self.socket.cores

    def socket_of_slice(self, slice_id: int) -> int:
        """Which socket a (global) LLC slice id lives on."""
        return (slice_id % self.total_slices) // self.socket.llc_slices

    def local_core(self, core_id: int) -> int:
        """Core index within its socket."""
        return (core_id % self.total_cores) % self.socket.cores

    def local_slice(self, slice_id: int) -> int:
        """Slice index within its socket."""
        return (slice_id % self.total_slices) % self.socket.llc_slices

    def core_on(self, socket: int, local_core: int) -> int:
        """Global core id of ``local_core`` on ``socket`` (placement)."""
        if not 0 <= socket < self.sockets:
            raise ValueError(
                f"socket {socket} out of range: this topology has "
                f"{self.sockets} socket(s) (valid: 0.."
                f"{self.sockets - 1})")
        if not 0 <= local_core < self.socket.cores:
            raise ValueError(
                f"local core {local_core} out of range: each socket has "
                f"{self.socket.cores} core(s) (valid: 0.."
                f"{self.socket.cores - 1})")
        return socket * self.socket.cores + local_core


@dataclass(frozen=True)
class LatencyParams:
    """Access latencies in cycles (load-to-use, from the requester's view)."""

    l1_hit: int = 4
    l2_hit: int = 14
    llc_hit: int = 62          # core -> LLC slice, incl. average ring hops
    dram: int = 230            # core -> DRAM
    hop: int = 1               # one interconnect hop (ring stop to ring stop)
    cha_llc_hit: int = 8       # CHA-side access into its local LLC slice
    cha_dram: int = 140        # CHA -> DRAM (skips core-side queues)
    snoop_invalidate: int = 60 # cross-core invalidation round trip
    dispatch: int = 5          # core -> query distributor -> accelerator
    result_return: int = 5     # accelerator -> core / register write-back


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core cost model parameters."""

    frequency_ghz: float = 2.1
    issue_width: int = 4
    base_cpi: float = 0.5      # achieved CPI on non-stalled instruction mix
    #: Fraction of compute cycles *exposed* (not hidden behind memory or
    #: neighbouring instructions by the OoO window).  With base_cpi=0.5 this
    #: charges mix.total * 0.125 exposed compute cycles per operation, while
    #: the front-end floor (total / issue_width) bounds throughput from below.
    compute_overlap: float = 0.25
    mlp: int = 4               # independent outstanding misses (MSHR-limited)
    rob_entries: int = 192
    lq_entries: int = 128
    sq_entries: int = 128


@dataclass(frozen=True)
class CacheParams:
    """One cache level's geometry."""

    size_bytes: int
    associativity: int
    line_bytes: int = CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        if self.associativity < 1:
            raise ValueError(f"CacheParams.associativity must be >= 1, "
                             f"got {self.associativity!r}")
        if self.line_bytes < 1:
            raise ValueError(f"CacheParams.line_bytes must be >= 1, "
                             f"got {self.line_bytes!r}")
        set_bytes = self.associativity * self.line_bytes
        if self.size_bytes < set_bytes or self.size_bytes % set_bytes:
            raise ValueError(
                f"CacheParams.size_bytes must be a positive multiple of "
                f"associativity * line_bytes ({set_bytes}), "
                f"got {self.size_bytes!r}")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class HaloParams:
    """HALO accelerator configuration (paper §4.7)."""

    scoreboard_entries: int = 10     # on-the-fly queries per accelerator
    metadata_cache_tables: int = 10  # cached table-metadata entries (640 B)
    hash_latency: int = 3            # fully pipelined hash unit latency
    hash_issue_interval: int = 1     # pipelined: 1 new hash per cycle
    compare_latency: int = 2         # signature/key comparator
    enabled_lock_bits: bool = True


@dataclass(frozen=True)
class MachineParams:
    """The whole simulated machine."""

    cores: int = 16
    llc_slices: int = 16
    l1d: CacheParams = field(default_factory=lambda: CacheParams(32 * KB, 8))
    l2: CacheParams = field(default_factory=lambda: CacheParams(1 * MB, 16))
    llc_slice: CacheParams = field(
        default_factory=lambda: CacheParams(2 * MB, 16)
    )  # 16 x 2MB = 32MB shared LLC
    latency: LatencyParams = field(default_factory=LatencyParams)
    core: CoreParams = field(default_factory=CoreParams)
    halo: HaloParams = field(default_factory=HaloParams)
    dram_bytes: int = 32 * 1024 * MB
    #: D-TLB model; None = perfect translation (the DPDK-hugepage steady
    #: state the paper measures).  Use TlbParams.small_pages() to expose
    #: 4 KB-page walk costs (see docs/MODELING.md).
    tlb: Optional[TlbParams] = None
    #: Multi-socket layout; None = single socket (the paper's machine),
    #: derived on demand by :attr:`topo`.  When set, its socket geometry
    #: must tile ``cores``/``llc_slices`` exactly (validated below).
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(
                f"MachineParams.cores must be >= 1 (got {self.cores})")
        if self.llc_slices < 1:
            raise ValueError(
                f"MachineParams.llc_slices must be >= 1 (got "
                f"{self.llc_slices}); the LLC needs at least one slice")
        topo = self.topology
        if topo is None:
            return
        if self.cores % topo.sockets != 0:
            raise ValueError(
                f"MachineParams.cores={self.cores} is not divisible by "
                f"topology.sockets={topo.sockets}; sockets must be "
                "identical — pick cores that tile evenly or adjust "
                "Topology.socket.cores")
        if self.llc_slices % topo.sockets != 0:
            raise ValueError(
                f"MachineParams.llc_slices={self.llc_slices} is not "
                f"divisible by topology.sockets={topo.sockets}; each "
                "socket must hold the same number of LLC slices")
        if topo.total_cores != self.cores:
            raise ValueError(
                f"topology mismatch: {topo.sockets} socket(s) x "
                f"{topo.socket.cores} cores/socket = {topo.total_cores}, "
                f"but MachineParams.cores={self.cores}; set "
                f"SocketParams(cores={self.cores // topo.sockets}, ...) "
                "or scale MachineParams.cores to match")
        if topo.total_slices != self.llc_slices:
            raise ValueError(
                f"topology mismatch: {topo.sockets} socket(s) x "
                f"{topo.socket.llc_slices} slices/socket = "
                f"{topo.total_slices}, but MachineParams.llc_slices="
                f"{self.llc_slices}; set SocketParams(llc_slices="
                f"{self.llc_slices // topo.sockets}, ...) or scale "
                "MachineParams.llc_slices to match")

    @property
    def llc_total_bytes(self) -> int:
        return self.llc_slice.size_bytes * self.llc_slices

    @property
    def topo(self) -> Topology:
        """The effective topology (a derived single socket when unset)."""
        if self.topology is not None:
            return self.topology
        return Topology(sockets=1,
                        socket=SocketParams(cores=self.cores,
                                            llc_slices=self.llc_slices))

    def scaled(self, **overrides) -> "MachineParams":
        """Return a copy with selected fields replaced (ablation helper)."""
        return replace(self, **overrides)

    def scale_out(self, sockets: int, link_latency: int = 70,
                  link_bandwidth_gbps: float = 41.6) -> "MachineParams":
        """Stamp this (single-socket) machine out to ``sockets`` sockets.

        Core and slice counts multiply; per-socket geometry, latencies,
        and cache shapes stay what they were.  ``machine.scale_out(1)``
        is the explicit-topology twin of the default machine and must
        behave bit-identically.
        """
        if self.topology is not None and self.topology.sockets != 1:
            raise ValueError(
                "scale_out starts from a single-socket machine; this one "
                f"already has {self.topology.sockets} sockets")
        topo = Topology(
            sockets=sockets,
            socket=SocketParams(cores=self.cores,
                                llc_slices=self.llc_slices),
            link_latency=link_latency,
            link_bandwidth_gbps=link_bandwidth_gbps)
        return replace(self, cores=self.cores * sockets,
                       llc_slices=self.llc_slices * sockets,
                       topology=topo)


#: The paper's Table 2 machine.
SKYLAKE_SP_16C = MachineParams()

#: A small machine for fast unit tests.
TINY_MACHINE = MachineParams(
    cores=2,
    llc_slices=2,
    l1d=CacheParams(4 * KB, 4),
    l2=CacheParams(16 * KB, 4),
    llc_slice=CacheParams(64 * KB, 8),
)

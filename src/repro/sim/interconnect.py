"""On-chip (and inter-socket) interconnect: slice hashing and hop latency.

Models the ring that connects cores, LLC slices/CHAs, and the memory
controller.  Two responsibilities:

* **Slice hashing** — the address-to-slice hash that distributes lines (and
  HALO queries, which reuse the same logic per paper §4.3) evenly across
  LLC slices.  Hashing is *global* across every socket's slices: the
  machine exposes one shared NUCA address space, and remote homes are what
  make cross-socket traffic appear.
* **Hop latency** — distance-dependent latency between stops, the NUCA in
  "Non-Uniform Cache Access".  With a multi-socket
  :class:`~repro.sim.params.Topology`, each socket keeps its own local
  ring of ``slices_per_socket`` stops and sockets are bridged by a
  fully-connected UPI-like link: a cross-socket message walks its local
  ring to the socket's link stop (stop 0), pays ``link_latency`` for the
  crossing, then walks the destination socket's ring.  With one socket
  every formula reduces exactly to the original single-ring arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .params import LatencyParams, Topology


def mix64(value: int) -> int:
    """SplitMix64 finaliser: xor-shift / multiply rounds.

    The repo's one stateless 64-bit mixer: LLC slice hashing here, the
    hash unit (:mod:`repro.hashtable.hashing`), the fault RNG
    (:class:`repro.faults.plan.SplitMix64`) and RSS flow hashing
    (:mod:`repro.cluster.balancer`) all call this function.
    """
    value &= 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


# ``np.uint64`` operands keep every step in uint64, where multiplies wrap
# modulo 2**64 exactly as ``mix64``'s masks do.
_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_SHIFT_27, _SHIFT_30, _SHIFT_31 = np.uint64(27), np.uint64(30), np.uint64(31)


def mix64_array(values: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a one-dimensional ``uint64`` array.

    Public contract: ``mix64_array(a).tolist() == [mix64(v) for v in
    a.tolist()]``.  Only xor, shift and multiply run, in ``uint64`` with
    wrap-around, and ``values`` is not modified.
    """
    mixed = values ^ (values >> _SHIFT_30)
    mixed *= _MIX_MUL1
    mixed ^= mixed >> _SHIFT_27
    mixed *= _MIX_MUL2
    mixed ^= mixed >> _SHIFT_31
    return mixed


#: Lines hashed per :func:`mix64_array` pass of a region sweep; bounds the
#: sweep's numpy temporaries whatever the region's size.
SWEEP_CHUNK_LINES = 1 << 12


@dataclass
class InterconnectStats:
    messages: int = 0
    total_hops: int = 0
    link_crossings: int = 0    # inter-socket link traversals (0 = 1 socket)

    def as_dict(self) -> dict:
        """Flat scalar view for the metrics registry (pull source)."""
        average = self.total_hops / self.messages if self.messages else 0.0
        return {"messages": self.messages, "total_hops": self.total_hops,
                "average_hops": average,
                "link_crossings": self.link_crossings}


class Interconnect:
    """A bidirectional ring with ``stops`` ring stops.

    Cores and LLC slices share ring-stop indices (core *i* sits next to
    slice *i*), matching the tiled Skylake-SP floorplan.  When ``topology``
    describes more than one socket, the stops split into per-socket rings
    of ``topology.socket.llc_slices`` stops each; see the module docstring
    for the cross-socket path model.
    """

    def __init__(self, stops: int, latency: LatencyParams,
                 topology: Optional[Topology] = None) -> None:
        if stops < 1:
            raise ValueError("interconnect needs at least one stop")
        self.stops = stops
        self.latency = latency
        self.stats = InterconnectStats()
        self.topology = topology
        self.sockets = topology.sockets if topology is not None else 1
        if self.sockets > 1:
            if stops % self.sockets != 0:
                raise ValueError(
                    f"{stops} stops do not tile {self.sockets} sockets "
                    "evenly; slice counts must match the topology")
            self.local_stops = stops // self.sockets
            self.link_latency = topology.link_latency
        else:
            self.local_stops = stops
            self.link_latency = 0
        #: Fault seam (``repro.faults``): called per message with
        #: ``(src, dst, hops)``, returns extra cycles (drop → retransmit).
        #: None = uninstalled.
        self.fault_hook = None
        # line -> slice memo: the mapping is a pure stateless hash, and a
        # run touches the same lines over and over, so a dict probe beats
        # re-running the mixer on the per-access hot path.
        self._slice_memo: dict = {}

    #: Slice-memo entries kept before the memo resets.  It bounds memory
    #: on runs whose accesses roam over more lines than this; 48,000
    #: uniform lookups in a 2^19-entry table touch about 80,000.
    _SLICE_MEMO_CAP = 1 << 17

    def slice_of_line(self, line: int) -> int:
        """The LLC slice (and CHA) owning a cache line."""
        memo = self._slice_memo
        slice_id = memo.get(line)
        if slice_id is None:
            if len(memo) >= self._SLICE_MEMO_CAP:
                memo.clear()
            slice_id = memo[line] = mix64(line) % self.stops
        return slice_id

    def slices_of_lines(self, first: int, last: int) -> Iterator[int]:
        """:meth:`slice_of_line` of every line from ``first`` to ``last``
        (inclusive), in line order.

        For one-pass sweeps over a region (warming, flushing), whose lines
        would only crowd the memo: they bypass it and are hashed
        :data:`SWEEP_CHUNK_LINES` at a time through :func:`mix64_array`.
        """
        for start in range(first, last + 1, SWEEP_CHUNK_LINES):
            stop = min(start + SWEEP_CHUNK_LINES, last + 1)
            yield from self._slices_of(
                np.arange(start, stop, dtype=np.uint64)).tolist()

    def _slices_of(self, lines: np.ndarray) -> np.ndarray:
        """:meth:`slice_of_line` of every line of a ``uint64`` array, as a
        ``uint64`` array: the one sweep hashing routine (no memo)."""
        return mix64_array(lines) % np.uint64(self.stops)

    def slice_of_table(self, table_base_addr: int) -> int:
        """HALO query-distributor target for a table address (§4.3).

        Reuses the same distribution logic as line hashing, keyed by the
        table's base address so that queries against one table consistently
        land on one accelerator's metadata cache.
        """
        return mix64(table_base_addr >> 6) % self.stops

    def socket_of_stop(self, stop: int) -> int:
        """Which socket a stop (slice/core tile) belongs to."""
        return (stop % self.stops) // self.local_stops

    def _local_distance(self, src_local: int, dst_local: int) -> int:
        """Hop count between two stops of one socket's local ring."""
        distance = abs(src_local - dst_local) % self.local_stops
        return min(distance, self.local_stops - distance)

    def hops(self, src_stop: int, dst_stop: int) -> int:
        """Shortest-path *ring* hop count between two stops.

        Same socket: the local ring distance.  Cross socket: local
        hops to the source socket's link stop (local stop 0) plus local
        hops from the destination socket's link stop — the link crossing
        itself is charged separately (:meth:`link_crossings`).
        """
        src = src_stop % self.stops
        dst = dst_stop % self.stops
        if self.sockets == 1:
            return self._local_distance(src, dst)
        src_socket, src_local = divmod(src, self.local_stops)
        dst_socket, dst_local = divmod(dst, self.local_stops)
        if src_socket == dst_socket:
            return self._local_distance(src_local, dst_local)
        return (self._local_distance(src_local, 0)
                + self._local_distance(dst_local, 0))

    def link_crossings(self, src_stop: int, dst_stop: int) -> int:
        """Inter-socket link traversals between two stops (0 or 1).

        Sockets are fully connected (2- and 4-socket UPI meshes are), so
        any cross-socket message crosses exactly one link.
        """
        if self.sockets == 1:
            return 0
        return (0 if self.socket_of_stop(src_stop)
                == self.socket_of_stop(dst_stop) else 1)

    def route(self, src_stop: int, dst_stop: int) -> Tuple[int, int, int]:
        """``(cycles, ring hops, link crossings)`` of one message between
        two stops, uncounted and without the fault hook."""
        hops = self.hops(src_stop, dst_stop)
        crossings = self.link_crossings(src_stop, dst_stop)
        return (hops * self.latency.hop + crossings * self.link_latency,
                hops, crossings)

    def transfer_latency(self, src_stop: int, dst_stop: int) -> int:
        """Cycles to move one message between two stops (:meth:`route`,
        counted, plus the fault hook's extra cycles)."""
        latency, hops, crossings = self.route(src_stop, dst_stop)
        self.stats.messages += 1
        self.stats.total_hops += hops
        if crossings:
            self.stats.link_crossings += crossings
        if self.fault_hook is not None:
            latency += self.fault_hook(src_stop, dst_stop, hops)
        return latency

    def average_hops(self) -> float:
        if not self.stats.messages:
            return 0.0
        return self.stats.total_hops / self.stats.messages

"""Hardware-assisted concurrency lock (paper §4.4).

HALO repurposes one reserved bit in each cache line's metadata as a lock
bit.  While an accelerator query holds the lock on its bucket (and key-value)
lines, any core's snoop-invalidate against those lines receives a "snoop
miss" and must retry — giving the multi-line lookup read atomicity without a
software lock.

:class:`HardwareLockManager` wraps the LLC lock bits with bookkeeping so a
query can lock a set of lines and is guaranteed to release them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..sim.hierarchy import MemoryHierarchy


@dataclass
class HardwareLockStats:
    lock_operations: int = 0
    unlock_operations: int = 0
    rejected_invalidations: int = 0

    def as_dict(self) -> dict:
        """Flat scalar view for the metrics registry (pull source)."""
        return {"lock_operations": self.lock_operations,
                "unlock_operations": self.unlock_operations,
                "rejected_invalidations": self.rejected_invalidations,
                "held": self.lock_operations - self.unlock_operations}


class LockLease:
    """The set of lines one query currently holds locked."""

    __slots__ = ("manager", "lines")

    def __init__(self, manager: "HardwareLockManager") -> None:
        self.manager = manager
        self.lines: List[int] = []

    def lock(self, addr: int) -> None:
        if self.manager.hierarchy.lock_line(addr):
            self.lines.append(addr)
            self.manager.stats.lock_operations += 1

    def release_all(self) -> None:
        for addr in self.lines:
            self.manager.hierarchy.unlock_line(addr)
            self.manager.stats.unlock_operations += 1
        self.lines.clear()

    def __enter__(self) -> "LockLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release_all()


class HardwareLockManager:
    """Factory for lock leases over one memory hierarchy's LLC lock bits."""

    def __init__(self, hierarchy: MemoryHierarchy, enabled: bool = True) -> None:
        self.hierarchy = hierarchy
        self.enabled = enabled
        self.stats = HardwareLockStats()
        hierarchy.obs.metrics.register_source("halo.locks",
                                              self.stats.as_dict)

    def lease(self) -> LockLease:
        return LockLease(self)

    def lock_lines(self, addrs: Iterable[int]) -> LockLease:
        lease = self.lease()
        if self.enabled:
            for addr in addrs:
                lease.lock(addr)
        return lease

    def note_rejected_invalidation(self) -> None:
        self.stats.rejected_invalidations += 1

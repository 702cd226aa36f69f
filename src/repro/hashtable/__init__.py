"""Hash-table substrates: DPDK-style cuckoo hash and the SFH baseline."""

from .cuckoo import (
    CuckooHashTable,
    CuckooStats,
    LOOKUP_MIX,
    LookupPlan,
    TableFull,
)
from .hashing import hash_bytes, mix64, secondary_index, signature_of
from .layout import (
    StandaloneAllocator,
    TableLayout,
    allocate_table,
    next_power_of_two,
)
from .locking import OptimisticLock, READ_SIDE_CYCLES, WRITE_SIDE_CYCLES
from .single_hash import SingleHashTable

__all__ = [
    "CuckooHashTable",
    "CuckooStats",
    "LOOKUP_MIX",
    "LookupPlan",
    "OptimisticLock",
    "READ_SIDE_CYCLES",
    "SingleHashTable",
    "StandaloneAllocator",
    "TableFull",
    "TableLayout",
    "WRITE_SIDE_CYCLES",
    "allocate_table",
    "hash_bytes",
    "mix64",
    "next_power_of_two",
    "secondary_index",
    "signature_of",
]

"""Memory layout of hash tables (paper Figure 2b).

A table occupies three contiguous regions obtained from the simulator's
address allocator:

* **metadata** — one cache line holding table size, key length, hash seed,
  etc.  HALO's per-accelerator metadata cache caches exactly this line.
* **buckets** — an array of 64-byte buckets, each holding ``assoc``
  {16-bit signature, 48-bit pointer} pairs ("each bucket typically occupies
  and aligns with one CPU cache line").
* **key-value array** — fixed-size {key, data} slots referenced by bucket
  pointers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.memory import AddressAllocator, Region
from ..sim.params import CACHE_LINE_BYTES

#: Bytes per {signature, pointer} pair inside a bucket.
ENTRY_PAIR_BYTES = 8
#: Bytes of data stored beside each key in a key-value slot.
VALUE_BYTES = 8


def _round_up(value: int, multiple: int) -> int:
    return (value + multiple - 1) // multiple * multiple


def next_power_of_two(value: int) -> int:
    result = 1
    while result < value:
        result <<= 1
    return result


@dataclass(frozen=True)
class TableLayout:
    """Resolved addresses for one hash table."""

    name: str
    num_buckets: int
    assoc: int
    key_bytes: int
    value_bytes: int
    metadata: Region
    buckets: Region
    key_values: Region

    @property
    def kv_slot_bytes(self) -> int:
        return _round_up(self.key_bytes + self.value_bytes, 16)

    @property
    def num_slots(self) -> int:
        return self.num_buckets * self.assoc

    @property
    def total_bytes(self) -> int:
        return self.metadata.size + self.buckets.size + self.key_values.size

    def bucket_addr(self, bucket_index: int) -> int:
        if not 0 <= bucket_index < self.num_buckets:
            raise IndexError(f"bucket {bucket_index} out of range")
        return self.buckets.base + bucket_index * CACHE_LINE_BYTES

    def kv_addr(self, slot_index: int) -> int:
        if not 0 <= slot_index < self.num_slots:
            raise IndexError(f"slot {slot_index} out of range")
        return self.key_values.base + slot_index * self.kv_slot_bytes

    @property
    def table_addr(self) -> int:
        """The address identifying this table (HALO's RAX operand, §4.5)."""
        return self.metadata.base


def allocate_table(allocator: AddressAllocator, name: str, num_buckets: int,
                   assoc: int, key_bytes: int) -> TableLayout:
    """Carve a table's three regions out of simulated physical memory."""
    if num_buckets & (num_buckets - 1):
        raise ValueError("num_buckets must be a power of two")
    if assoc * ENTRY_PAIR_BYTES > CACHE_LINE_BYTES:
        raise ValueError(
            f"{assoc} entries do not fit one {CACHE_LINE_BYTES}B bucket line")
    metadata = allocator.alloc(CACHE_LINE_BYTES, f"{name}.meta")
    buckets = allocator.alloc(num_buckets * CACHE_LINE_BYTES, f"{name}.buckets")
    slot_bytes = _round_up(key_bytes + VALUE_BYTES, 16)
    key_values = allocator.alloc(num_buckets * assoc * slot_bytes, f"{name}.kv")
    return TableLayout(
        name=name,
        num_buckets=num_buckets,
        assoc=assoc,
        key_bytes=key_bytes,
        value_bytes=VALUE_BYTES,
        metadata=metadata,
        buckets=buckets,
        key_values=key_values,
    )


class StandaloneAllocator(AddressAllocator):
    """Allocator for tables used without a full machine simulation."""

    def __init__(self) -> None:
        super().__init__(size_bytes=1 << 40)

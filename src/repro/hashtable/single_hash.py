"""Single-function hash table (SFH) — the Figure 4 baseline.

One hash function, one candidate bucket per key, overflow chained into
spill buckets.  Without a second choice or displacement, keeping the
overflow probability low requires heavy over-provisioning, so realistic
sizings run at ~20% slot utilisation (paper §3.3: "most of the table
buckets only have one or two entries occupied") and the table's cache
footprint is several times the cuckoo table's — which is what produces the
LLC-miss cliff at ~100K flows in Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim.memory import AddressAllocator
from ..sim.trace import InstructionMix, Tracer
from .hashing import hash_bytes, signature_of
from .layout import StandaloneAllocator, TableLayout, allocate_table, next_power_of_two

#: SFH lookup is simpler than cuckoo's (one bucket, no alt-index math).
LOOKUP_MIX = InstructionMix(loads=62, stores=20, arithmetic=30, others=50)
INSERT_MIX = InstructionMix(loads=70, stores=50, arithmetic=40, others=60)
#: Following an overflow-chain link costs an extra dependent line read.
CHAIN_HOP_MIX = InstructionMix(loads=10, stores=0, arithmetic=6, others=8)

#: Default over-provisioning: one bucket per expected key.  With 8-way
#: buckets this is the ~12.5–20% utilisation regime the paper reports.
DEFAULT_BUCKETS_PER_KEY = 1.0


@dataclass
class SfhStats:
    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    chain_hops: int = 0
    overflows: int = 0


class SingleHashTable:
    """A 1-choice hash table with per-bucket overflow chaining."""

    def __init__(
        self,
        expected_keys: int,
        key_bytes: int = 16,
        assoc: int = 8,
        buckets_per_key: float = DEFAULT_BUCKETS_PER_KEY,
        allocator: Optional[AddressAllocator] = None,
        tracer: Optional[Tracer] = None,
        seed: int = 0x0F1E,
        name: str = "sfh",
    ) -> None:
        if expected_keys < 1:
            raise ValueError("expected_keys must be positive")
        self.key_bytes = key_bytes
        self.assoc = assoc
        self.seed = seed
        self.name = name
        self.tracer = tracer if tracer is not None else Tracer()
        num_buckets = next_power_of_two(
            max(2, int(expected_keys * buckets_per_key)))
        allocator = allocator or StandaloneAllocator()
        self.layout: TableLayout = allocate_table(
            allocator, name, num_buckets, assoc, key_bytes)
        self._mask = num_buckets - 1
        # bucket -> list of (signature, key, value); entries beyond ``assoc``
        # live in overflow lines.
        self._buckets: List[List[Tuple[int, bytes, Any]]] = [
            [] for _ in range(num_buckets)]
        # Overflow lines are allocated lazily from a spill region.
        self._spill = allocator.alloc(
            max(64, num_buckets * 8), f"{name}.spill")
        self._size = 0
        self.stats = SfhStats()
        self._key_scratch = allocator.alloc(64, f"{name}.keybuf").base

    def __len__(self) -> int:
        return self._size

    @property
    def num_buckets(self) -> int:
        return self.layout.num_buckets

    @property
    def capacity(self) -> int:
        return self.layout.num_slots

    @property
    def load_factor(self) -> float:
        """In-bucket slot utilisation (excludes overflow entries)."""
        in_bucket = sum(min(len(b), self.assoc) for b in self._buckets)
        return in_bucket / self.capacity

    def bucket_occupancy_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for bucket in self._buckets:
            histogram[len(bucket)] = histogram.get(len(bucket), 0) + 1
        return histogram

    # -- internals ---------------------------------------------------------------
    def _index(self, key: bytes) -> Tuple[int, int]:
        if len(key) != self.key_bytes:
            raise ValueError("bad key length")
        digest = hash_bytes(key, self.seed)
        return digest & self._mask, signature_of(digest)

    def _overflow_addr(self, bucket_index: int, chain_hop: int) -> int:
        # Deterministic synthetic address for the hop-th overflow line.
        offset = ((bucket_index * 7 + chain_hop) * 64) % self._spill.size
        return self._spill.base + offset

    # -- operations ----------------------------------------------------------------
    def lookup(self, key: bytes, key_addr: Optional[int] = None) -> Any:
        index, signature = self._index(key)
        self.stats.lookups += 1
        bucket = self._buckets[index]
        tracer = self.tracer
        if tracer.enabled:
            tracer.load(key_addr if key_addr is not None else self._key_scratch,
                        self.key_bytes)
            tracer.barrier()
            tracer.load(self.layout.bucket_addr(index), 64)
        mix = LOOKUP_MIX
        value = None
        found = False
        kv_probed = False
        for position, (stored_sig, stored_key, stored_value) in enumerate(bucket):
            if position and position % self.assoc == 0:
                # Crossed into an overflow line: dependent chain hop.
                hop = position // self.assoc
                self.stats.chain_hops += 1
                if tracer.enabled:
                    tracer.barrier()
                    tracer.load(self._overflow_addr(index, hop), 64)
                mix = mix + CHAIN_HOP_MIX
            if stored_sig != signature:
                continue
            if not kv_probed and tracer.enabled:
                tracer.barrier()
            kv_probed = True
            slot = min(index * self.assoc + (position % self.assoc),
                       self.layout.num_slots - 1)
            if tracer.enabled:
                tracer.load(self.layout.kv_addr(slot),
                            self.layout.kv_slot_bytes)
            if stored_key == key:
                value = stored_value
                found = True
                break
        if found:
            self.stats.hits += 1
        if tracer.enabled:
            tracer.count(loads=mix.loads, stores=mix.stores,
                         arithmetic=mix.arithmetic, others=mix.others)
        return value

    def insert(self, key: bytes, value: Any) -> bool:
        index, signature = self._index(key)
        self.stats.inserts += 1
        bucket = self._buckets[index]
        tracer = self.tracer
        if tracer.enabled:
            tracer.load(self._key_scratch, self.key_bytes)
            tracer.barrier()
            tracer.load(self.layout.bucket_addr(index), 64)
            tracer.barrier()
            tracer.store(self.layout.bucket_addr(index), 64)
            tracer.count(loads=INSERT_MIX.loads, stores=INSERT_MIX.stores,
                         arithmetic=INSERT_MIX.arithmetic,
                         others=INSERT_MIX.others)
        for position, (stored_sig, stored_key, _value) in enumerate(bucket):
            if stored_sig == signature and stored_key == key:
                bucket[position] = (signature, key, value)
                return True
        if len(bucket) >= self.assoc:
            self.stats.overflows += 1
        bucket.append((signature, key, value))
        self._size += 1
        return True

    def delete(self, key: bytes) -> bool:
        index, signature = self._index(key)
        bucket = self._buckets[index]
        for position, (stored_sig, stored_key, _value) in enumerate(bucket):
            if stored_sig == signature and stored_key == key:
                del bucket[position]
                self._size -= 1
                return True
        return False

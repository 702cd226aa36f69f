"""Frozen cuckoo table — the placement and trace reference of record.

A verbatim snapshot of ``CuckooHashTable`` (``repro.hashtable.cuckoo``)
and ``hash_bytes`` (``repro.hashtable.hashing``) as they stood before the
lean hot-path rewrite: per-entry attribute writes in ``probe``, a
per-lane ``unpack_from`` in ``hash_bytes``, and a copied path list per
BFS node in ``_find_kick_path``.  ``tests/hashtable/test_reference_cuckoo.py``
drives this table and the live one with the same operation sequences and
requires identical return values, bucket and key-value arrays, slot
reuse order, stats, lock versions and emitted traces, so every later
speed-up is held to this one.

Do not modernise this module; its whole value is that it does not change.
Only the imports (absolute, and ``hash_bytes`` inlined from its module)
and the tracer default differ from the snapshot: a table built without a
tracer owns a fresh, disabled one, as the live table does.  The original
module docstring follows.

Cuckoo hash table — a functional model of DPDK's ``rte_hash``.

This is the paper's software baseline *and* the data structure HALO
accelerates.  Properties reproduced faithfully:

* 8-way set-associative buckets, one 64-byte cache line each, holding
  {16-bit signature, key-value slot pointer} pairs (Figure 2b), each kept
  as one packed int ``slot << 16 | signature``;
* two candidate buckets per key; the alternative bucket index is derived
  from the signature so displacement needs no key re-hash;
* BFS cuckoo displacement on insert ("cuckoo move"), giving ~95% achievable
  occupancy without rehashing (§3.3);
* a contiguous key-value array referenced by slot index, handing out
  slots from a next-unused counter after reusing freed ones
  last-freed-first;
* optional memory tracing: every probe emits the loads/stores the
  equivalent C code performs, with dependency groups (key → buckets → kv).

The per-lookup instruction mix is calibrated to the paper's Table 1:
210 instructions — 36.2% loads, 11.8% stores, 21.0% arithmetic, 30.9% other.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.hashtable.hashing import secondary_index, signature_of
from repro.hashtable.layout import (
    StandaloneAllocator, TableLayout, allocate_table, next_power_of_two)
from repro.hashtable.locking import OptimisticLock
from repro.sim.interconnect import mix64
from repro.sim.memory import AddressAllocator
from repro.sim.trace import InstructionMix, MemOp, MemOpKind, Tracer

MASK64 = 0xFFFFFFFFFFFFFFFF


def hash_bytes(data: bytes, seed: int = 0) -> int:
    """64-bit hash of an arbitrary byte string (jhash/xxhash-style rounds).

    Processes 8-byte lanes with multiply-rotate mixing, then finalises.
    """
    acc = (seed ^ (len(data) * 0x9E3779B97F4A7C15)) & MASK64
    view = memoryview(data)
    offset = 0
    while offset + 8 <= len(data):
        (lane,) = struct.unpack_from("<Q", view, offset)
        acc = (acc ^ mix64(lane)) * 0xC2B2AE3D27D4EB4F & MASK64
        acc = ((acc << 31) | (acc >> 33)) & MASK64
        offset += 8
    if offset < len(data):
        tail = bytes(view[offset:]) + b"\x00" * (8 - (len(data) - offset))
        (lane,) = struct.unpack_from("<Q", tail, 0)
        acc = (acc ^ mix64(lane)) * 0x165667B19E3779F9 & MASK64
    return mix64(acc)


#: Paper Table 1 — average instruction cost of one lookup.
LOOKUP_MIX = InstructionMix(loads=76, stores=25, arithmetic=44, others=65)
#: Additional work when a signature collision forces an extra key compare.
SIG_COLLISION_MIX = InstructionMix(loads=4, stores=0, arithmetic=6, others=2)
#: Per 8-byte key lane beyond the 16-byte baseline: extra hash rounds and
#: key-compare work (§3.4 profiles 4-64 B headers).
EXTRA_LANE_MIX = InstructionMix(loads=2, stores=0, arithmetic=5, others=1)
#: Insert cost (hash + both-bucket scan + slot claim + entry write).
INSERT_MIX = InstructionMix(loads=92, stores=58, arithmetic=58, others=82)
#: Extra work per cuckoo displacement hop.
KICK_MIX = InstructionMix(loads=16, stores=18, arithmetic=10, others=12)
#: Delete cost.
DELETE_MIX = InstructionMix(loads=70, stores=30, arithmetic=40, others=55)

DEFAULT_ASSOC = 8
DEFAULT_KEY_BYTES = 16
MAX_BFS_NODES = 1024
#: Longest displacement path an insert tries before giving up.
MAX_KICK_DEPTH = 100

#: A bucket entry is one int: the key-value slot above the 16-bit signature.
_SLOT_SHIFT = 16
_SIGNATURE_MASK = (1 << _SLOT_SHIFT) - 1


class TableFull(RuntimeError):
    """Raised when an insert cannot find a displacement path."""


@dataclass(slots=True)
class LookupPlan:
    """The structured probe a lookup performs.

    Shared between the software path (traced, replayed on a core) and the
    HALO accelerator (replayed CHA-side) so both execute the *same* probe.
    One is allocated per probe on every path, hence ``slots``.
    """

    key: bytes
    primary_hash: int
    signature: int
    primary_index: int
    secondary_index: int
    primary_addr: int
    secondary_addr: int
    buckets_scanned: int = 0
    sig_compares: int = 0
    #: Key-value addresses probed while scanning the primary / secondary
    #: bucket (signature matches needing a full key compare).
    kv_probes_primary: List[int] = field(default_factory=list)
    kv_probes_secondary: List[int] = field(default_factory=list)
    found: bool = False
    found_in_secondary: bool = False
    value: Any = None
    slot: Optional[int] = None

    @property
    def kv_probes(self) -> List[int]:
        return self.kv_probes_primary + self.kv_probes_secondary


@dataclass
class CuckooStats:
    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    insert_failures: int = 0
    kicks: int = 0
    deletes: int = 0
    sig_collisions: int = 0


class CuckooHashTable:
    """A 2-choice, ``assoc``-way cuckoo hash over fixed-size byte keys."""

    def __init__(
        self,
        capacity: int,
        key_bytes: int = DEFAULT_KEY_BYTES,
        assoc: int = DEFAULT_ASSOC,
        allocator: Optional[AddressAllocator] = None,
        tracer: Optional[Tracer] = None,
        seed: int = 0x5EED,
        name: str = "cuckoo",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.key_bytes = key_bytes
        self.assoc = assoc
        self.seed = seed
        self.name = name
        self.tracer = tracer if tracer is not None else Tracer()
        #: 8-byte hash/compare lanes beyond the 16-byte (2-lane) baseline.
        self.extra_key_lanes = max(0, -(-key_bytes // 8) - 2)
        num_buckets = next_power_of_two(max(2, (capacity + assoc - 1) // assoc))
        allocator = allocator or StandaloneAllocator()
        self.layout: TableLayout = allocate_table(
            allocator, name, num_buckets, assoc, key_bytes)
        self._mask = num_buckets - 1
        # Per bucket: packed ``slot << 16 | signature`` entries.
        self._buckets: List[List[int]] = [[] for _ in range(num_buckets)]
        self._kv: List[Optional[Tuple[bytes, Any]]] = [None] * self.layout.num_slots
        # Key-value slots are claimed from ``_freed_slots`` (LIFO) first,
        # then from ``_next_slot`` upwards.
        self._next_slot = 0
        self._freed_slots: List[int] = []
        self._size = 0
        self.stats = CuckooStats()
        self.lock = OptimisticLock()
        # key -> per-key probe geometry cache, see :meth:`_indices`.
        self._hash_memo: dict = {}
        # Layout constants hoisted off the hot probe path (pure, fixed at
        # construction; ``kv_slot_bytes`` is a computed property).
        self._kv_base = self.layout.key_values.base
        self._kv_slot_bytes = self.layout.kv_slot_bytes
        # key -> (mutation stamp, op tuple, mix) memo for lookup trace
        # emission; any structural change bumps ``_mutations`` and lets
        # stale entries age out lazily.  See :meth:`lookup`.
        self._trace_memo: dict = {}
        self._mutations = 0
        # Scratch buffer standing in for the caller's key storage.
        self._key_scratch = allocator.alloc(64, f"{name}.keybuf").base

    # -- geometry / introspection -------------------------------------------------
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
        return self._size / self.capacity

    @property
    def table_addr(self) -> int:
        return self.layout.table_addr

    def bucket_occupancy_histogram(self) -> Dict[int, int]:
        """#buckets by occupied-entry count (paper compares vs SFH)."""
        histogram: Dict[int, int] = {}
        for bucket in self._buckets:
            histogram[len(bucket)] = histogram.get(len(bucket), 0) + 1
        return histogram

    def bucket_keys(self, bucket_index: int) -> List[bytes]:
        """The keys stored in one bucket (cache-style eviction support)."""
        keys = []
        for entry in self._buckets[bucket_index]:
            stored = self._kv[entry >> _SLOT_SHIFT]
            if stored is not None:
                keys.append(stored[0])
        return keys

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        for bucket in self._buckets:
            for entry in bucket:
                stored = self._kv[entry >> _SLOT_SHIFT]
                if stored is not None:
                    yield stored

    #: Hash-memo entries kept before the cache resets (bounds memory on
    #: streaming workloads that never repeat a key).
    _HASH_MEMO_CAP = 1 << 16

    # -- hashing ------------------------------------------------------------------
    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_bytes:
            raise ValueError(
                f"key length {len(key)} != table key size {self.key_bytes}")

    def _indices(self, key: bytes) -> Tuple[int, int, int, int, int, int]:
        """(primary_hash, primary_index, signature, secondary_index,
        primary_addr, secondary_addr).

        Memoised per key: everything here is pure (seed, bucket mask, and
        layout are fixed for the table's lifetime) and NFV key streams
        revisit the same flows constantly.  The memo is capacity-capped so
        million-flow churn can't grow it without bound.
        """
        memo = self._hash_memo
        cached = memo.get(key)
        if cached is None:
            if len(memo) >= self._HASH_MEMO_CAP:
                memo.clear()
            primary_hash = hash_bytes(key, self.seed)
            index1 = primary_hash & self._mask
            signature = signature_of(primary_hash)
            index2 = secondary_index(index1, signature, self._mask)
            cached = memo[key] = (
                primary_hash, index1, signature, index2,
                self.layout.bucket_addr(index1),
                self.layout.bucket_addr(index2))
        return cached

    def _alt_index(self, index: int, signature: int) -> int:
        return secondary_index(index, signature, self._mask)

    # -- probe (shared by software and HALO paths) ---------------------------------
    def probe(self, key: bytes) -> LookupPlan:
        """Pure functional probe: no tracing, no stats mutation."""
        self._check_key(key)
        primary_hash, index1, signature, index2, addr1, addr2 = (
            self._indices(key))
        plan = LookupPlan(
            key=key,
            primary_hash=primary_hash,
            signature=signature,
            primary_index=index1,
            secondary_index=index2,
            primary_addr=addr1,
            secondary_addr=addr2,
        )
        buckets = self._buckets
        kv = self._kv
        kv_base = self._kv_base
        kv_slot_bytes = self._kv_slot_bytes
        signature_mask = _SIGNATURE_MASK
        slot_shift = _SLOT_SHIFT
        for which, index in enumerate((index1, index2)):
            plan.buckets_scanned += 1
            kv_probes = (plan.kv_probes_secondary if which
                         else plan.kv_probes_primary)
            for entry in buckets[index]:
                plan.sig_compares += 1
                if entry & signature_mask != signature:
                    continue
                slot = entry >> slot_shift
                stored = kv[slot]
                kv_probes.append(kv_base + slot * kv_slot_bytes)
                if stored is not None and stored[0] == key:
                    plan.found = True
                    plan.found_in_secondary = bool(which)
                    plan.value = stored[1]
                    plan.slot = slot
                    return plan
            if which == 0 and index2 == index1:
                break  # degenerate: both candidates are the same bucket
        return plan

    # -- lookup (software path, traced) ---------------------------------------------
    def lookup(self, key: bytes, key_addr: Optional[int] = None) -> Any:
        """Find ``key``; returns the stored value or ``None``.

        Emits the software lookup's memory trace and instruction mix into
        the table's tracer (paper §4.3 query procedure, DPDK both-bucket
        prefetch included).
        """
        plan = self.probe(key)
        self.stats.lookups += 1
        if plan.found:
            self.stats.hits += 1
        extra_compares = max(0, len(plan.kv_probes) - 1)
        self.stats.sig_collisions += extra_compares

        tracer = self.tracer
        if tracer.enabled:
            # A lookup's trace is a pure function of the key and the
            # table's contents, so memoise the emitted op sequence per
            # key and invalidate on any mutation (NFV key streams repeat
            # flows constantly; the real hardware's flow cache exploits
            # exactly this locality).  ``key_addr`` callers place the key
            # load at a caller-chosen address, so only the default-scratch
            # form is cached.
            if key_addr is None:
                memo = self._trace_memo
                cached = memo.get(key)
                if cached is not None and cached[0] == self._mutations:
                    tracer.emit_trace(cached[1], 2, cached[2])
                    return plan.value
            # Relative dependency groups: key load (0) -> bucket reads
            # (1) -> kv probes (2), two barriers total — identical to the
            # serial load/barrier emission this replaces.
            ops = [MemOp(key_addr if key_addr is not None
                         else self._key_scratch, self.key_bytes,
                         MemOpKind.LOAD, 0),
                   MemOp(plan.primary_addr, 64, MemOpKind.LOAD, 1)]
            if plan.secondary_addr != plan.primary_addr:
                ops.append(MemOp(plan.secondary_addr, 64, MemOpKind.LOAD, 1))
            kv_slot_bytes = self._kv_slot_bytes
            for kv_addr in plan.kv_probes:
                ops.append(MemOp(kv_addr, kv_slot_bytes, MemOpKind.LOAD, 2))
            mix = LOOKUP_MIX
            for _ in range(extra_compares):
                mix = mix + SIG_COLLISION_MIX
            for _ in range(self.extra_key_lanes):
                mix = mix + EXTRA_LANE_MIX
            ops = tuple(ops)
            tracer.emit_trace(ops, 2, mix)
            if key_addr is None:
                if len(memo) >= self._HASH_MEMO_CAP:
                    memo.clear()
                memo[key] = (self._mutations, ops, mix)
        return plan.value

    # -- insert -----------------------------------------------------------------------
    def insert(self, key: bytes, value: Any) -> bool:
        """Insert or update ``key``; returns False only if the table is full."""
        self._check_key(key)
        self._mutations += 1
        plan = self.probe(key)
        self.stats.inserts += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.load(self._key_scratch, self.key_bytes)
            tracer.barrier()
            tracer.load(plan.primary_addr, 64)
            tracer.load(plan.secondary_addr, 64)
            tracer.barrier()
            tracer.count(loads=INSERT_MIX.loads, stores=INSERT_MIX.stores,
                         arithmetic=INSERT_MIX.arithmetic,
                         others=INSERT_MIX.others)

        if plan.found:
            # Update in place.
            self._kv[plan.slot] = (key, value)
            if tracer.enabled:
                tracer.store(self.layout.kv_addr(plan.slot),
                             self.layout.kv_slot_bytes)
            return True

        placed = self._place(key, value, plan)
        if not placed:
            self.stats.insert_failures += 1
        return placed

    def _place(self, key: bytes, value: Any, plan: LookupPlan) -> bool:
        for index in (plan.primary_index, plan.secondary_index):
            if len(self._buckets[index]) < self.assoc:
                # A plain slot claim is a single-entry write — readers never
                # see a torn state, so no version bump (rte_hash behaviour).
                self._store_entry(index, plan.signature, key, value)
                return True
        path = self._find_kick_path(plan.primary_index, plan.secondary_index)
        if path is None:
            return False
        # Cuckoo moves relocate entries readers may be chasing: the
        # optimistic version must change so concurrent readers retry
        # (the Figure 7a race).
        self.lock.write_begin()
        try:
            self._apply_kick_path(path)
        finally:
            self.lock.write_end()
        destination = path[0][0]
        self._store_entry(destination, plan.signature, key, value)
        return True

    def _store_entry(self, bucket_index: int, signature: int, key: bytes,
                     value: Any) -> None:
        if self._freed_slots:
            slot = self._freed_slots.pop()
        elif self._next_slot < len(self._kv):
            slot = self._next_slot
            self._next_slot += 1
        else:
            raise TableFull(f"{self.name}: key-value array exhausted")
        self._kv[slot] = (key, value)
        self._buckets[bucket_index].append(slot << _SLOT_SHIFT | signature)
        self._size += 1
        if self.tracer.enabled:
            self.tracer.barrier()
            self.tracer.store(self.layout.kv_addr(slot),
                              self.layout.kv_slot_bytes)
            self.tracer.store(self.layout.bucket_addr(bucket_index), 64)

    # -- BFS cuckoo displacement ---------------------------------------------------
    def _find_kick_path(self, index1: int,
                        index2: int) -> Optional[List[Tuple[int, int]]]:
        """BFS for a chain of moves freeing a slot in ``index1`` or ``index2``.

        Returns ``[(bucket, entry_position), ...]`` from the bucket that will
        receive the new key down to the bucket with a free slot, or ``None``.
        """
        # Each queue item: (bucket_index, path_of_moves) where path records
        # (source_bucket, entry_position) hops taken to get here.
        queue: deque = deque()
        queue.append((index1, [(index1, -1)]))
        if index2 != index1:
            queue.append((index2, [(index2, -1)]))
        visited = {index1, index2}
        nodes = 0
        while queue and nodes < MAX_BFS_NODES:
            bucket_index, path = queue.popleft()
            nodes += 1
            if len(path) - 1 > MAX_KICK_DEPTH:
                continue
            bucket = self._buckets[bucket_index]
            if len(bucket) < self.assoc:
                return path
            for position, entry in enumerate(bucket):
                alt = self._alt_index(bucket_index, entry & _SIGNATURE_MASK)
                if alt in visited:
                    continue
                visited.add(alt)
                hop = path[:-1] + [(bucket_index, position), (alt, -1)]
                queue.append((alt, hop))
        return None

    def _apply_kick_path(self, path: List[Tuple[int, int]]) -> None:
        """Execute the moves, last hop first ("cuckoo move", Figure 7a)."""
        # path = [(b0,-1)] means b0 already has room; longer paths record the
        # entry positions to displace at each intermediate bucket.
        moves = [(bucket, position) for bucket, position in path
                 if position >= 0]
        for bucket_index, position in reversed(moves):
            entry = self._buckets[bucket_index][position]
            destination = self._alt_index(bucket_index,
                                          entry & _SIGNATURE_MASK)
            if len(self._buckets[destination]) >= self.assoc:
                raise RuntimeError("BFS kick path invalidated mid-move")
            del self._buckets[bucket_index][position]
            self._buckets[destination].append(entry)
            self.stats.kicks += 1
            if self.tracer.enabled:
                self.tracer.barrier()
                self.tracer.load(self.layout.bucket_addr(bucket_index), 64)
                self.tracer.store(self.layout.bucket_addr(bucket_index), 64)
                self.tracer.store(self.layout.bucket_addr(destination), 64)
                self.tracer.count(loads=KICK_MIX.loads, stores=KICK_MIX.stores,
                                  arithmetic=KICK_MIX.arithmetic,
                                  others=KICK_MIX.others)

    # -- delete -------------------------------------------------------------------------
    def delete(self, key: bytes) -> bool:
        self._mutations += 1
        plan = self.probe(key)
        self.stats.deletes += 1
        if not plan.found:
            return False
        bucket_index = (plan.secondary_index if plan.found_in_secondary
                        else plan.primary_index)
        bucket = self._buckets[bucket_index]
        try:
            position = bucket.index(plan.slot << _SLOT_SHIFT | plan.signature)
        except ValueError:
            raise RuntimeError(
                "probe found a slot the bucket scan cannot see") from None
        self.lock.write_begin()
        del bucket[position]
        self._kv[plan.slot] = None
        self._freed_slots.append(plan.slot)
        self._size -= 1
        self.lock.write_end()
        if self.tracer.enabled:
            self.tracer.load(self.layout.bucket_addr(bucket_index), 64)
            self.tracer.barrier()
            self.tracer.store(self.layout.bucket_addr(bucket_index), 64)
            self.tracer.store(self.layout.kv_addr(plan.slot),
                              self.layout.kv_slot_bytes)
            self.tracer.count(
                loads=DELETE_MIX.loads, stores=DELETE_MIX.stores,
                arithmetic=DELETE_MIX.arithmetic,
                others=DELETE_MIX.others)
        return True

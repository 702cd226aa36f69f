"""Cuckoo hash table — a functional model of DPDK's ``rte_hash``.

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

Public contract: every table state and trace below is a function of the
operation sequence alone, and ``tests/hashtable/reference_cuckoo.py``
pins it.  :meth:`CuckooHashTable.probe`, :meth:`~CuckooHashTable.lookup`,
:meth:`~CuckooHashTable.insert` and :meth:`~CuckooHashTable.delete` raise
``ValueError`` for a key whose length is not ``key_bytes``.

* ``probe(key)`` changes nothing and returns a :class:`LookupPlan`.  It
  scans the primary bucket, then the secondary one (unless they are the
  same), each in entry order.  It records one key-value address per
  signature match and stops at the first full key match.  The HALO
  accelerator reads ``primary_hash``, ``primary_addr``,
  ``secondary_addr``, ``kv_probes_primary``, ``kv_probes_secondary``,
  ``found``, ``found_in_secondary`` and ``value``.  The EMC reads
  ``found``, ``primary_index`` and ``secondary_index``.
* ``insert(key, value)`` updates a present key in place.  A new key is
  appended to its primary bucket if it has room, else to its secondary
  one.  Else a breadth-first search finds a displacement path: primary
  before secondary, a bucket's entries in order, at most
  ``MAX_BFS_NODES`` buckets and ``MAX_KICK_DEPTH`` hops.  The moves run
  last hop first, each appending the moved entry to its other bucket,
  and the new key is appended to the bucket the path frees.  With no
  path the insert returns False and changes nothing but
  ``stats.insert_failures``.
* ``insert_planned(plan, value)`` is ``insert(plan.key, value)``
  through an earlier ``probe(plan.key)``, with no insert or delete of
  that key since; it does not probe again.
* ``insert_many(items)`` is exactly ``[insert(key, value) for key, value
  in items]``: the same return values, buckets, key-value array,
  freed-slot order, next unused slot, stats, lock version and trace.
  The one difference: it raises ``ValueError`` before changing anything
  if any key's length is not ``key_bytes``.  Keys are hashed in batches
  (``repro.hashtable.hashing.hash_many``); the result is the same
  because the hashes and alternate buckets are pure functions of the
  key, and every pair is placed in input order through the routine
  ``insert`` runs.  It may leave the per-key hash memo unfilled.
* A new key takes the most recently freed key-value slot, else the
  lowest never-used one.  ``delete(key)`` frees the key's slot and
  returns whether the key was present.
* Cuckoo moves and deletes bump ``lock.counter``.  Plain slot claims and
  in-place updates do not.
* ``lookup(key)`` emits one trace per call: the key load (dependency
  group 0), the primary and, when different, the secondary bucket line
  (group 1), one key-value load per probed address (group 2), two
  barriers in all.  Its mix is ``LOOKUP_MIX`` plus ``SIG_COLLISION_MIX``
  per probed address beyond the first, plus ``EXTRA_LANE_MIX`` per 8-byte
  key lane beyond two.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..sim.memory import AddressAllocator
from ..sim.trace import InstructionMix, MemOp, MemOpKind, Tracer
from .hashing import (
    ALT_BUCKET_BITS, ALT_BUCKET_MIX, hash_bytes, hash_many, secondary_index,
    signature_of)
from .layout import StandaloneAllocator, TableLayout, allocate_table, next_power_of_two
from .locking import OptimisticLock

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
#: Keys :meth:`CuckooHashTable.insert_many` hashes per :func:`hash_many`
#: pass: its numpy temporaries stay bounded whatever the batch size.
INSERT_CHUNK_KEYS = 1 << 16

#: A bucket entry is one int: the key-value slot above the 16-bit signature.
_SLOT_SHIFT = 16
_SIGNATURE_MASK = (1 << _SLOT_SHIFT) - 1
#: ``_place``'s default ``slot``: the caller has not probed the key.
_UNPROBED = object()


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
        # key -> (mutation stamp, op tuple, mix, value, found, extra key
        # compares) memo of a traced lookup; any insert or delete bumps
        # ``_mutations`` and lets stale entries age out lazily.  See
        # :meth:`lookup`.
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
        """The keys stored in one bucket (cache-style eviction support).

        Every bucket entry references a live key-value slot: an entry and
        its slot are written together and freed together."""
        kv = self._kv
        return [kv[entry >> _SLOT_SHIFT][0]
                for entry in self._buckets[bucket_index]]

    def bucket_is_full(self, bucket_index: int) -> bool:
        """Whether one bucket holds ``assoc`` entries."""
        return len(self._buckets[bucket_index]) >= self.assoc

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
    def _indices(self, key: bytes) -> Tuple[int, int, int, int, int, int]:
        """(primary_hash, primary_index, signature, secondary_index,
        primary_addr, secondary_addr), computed and memoised.

        Everything here is pure (seed, bucket mask, and layout are fixed
        for the table's lifetime) and NFV key streams revisit the same
        flows constantly, so :meth:`probe` reads ``_hash_memo`` first and
        calls this only on a miss.  The memo is capacity-capped so
        million-flow churn can't grow it without bound.
        """
        memo = self._hash_memo
        if len(memo) >= self._HASH_MEMO_CAP:
            memo.clear()
        primary_hash = hash_bytes(key, self.seed)
        index1 = primary_hash & self._mask
        signature = signature_of(primary_hash)
        index2 = secondary_index(index1, signature, self._mask)
        geometry = memo[key] = (
            primary_hash, index1, signature, index2,
            self.layout.bucket_addr(index1),
            self.layout.bucket_addr(index2))
        return geometry

    # -- probe (shared by software and HALO paths) ---------------------------------
    def _wrong_length(self, key: bytes) -> ValueError:
        return ValueError(
            f"key length {len(key)} != table key size {self.key_bytes}")

    def probe(self, key: bytes) -> LookupPlan:
        """Pure functional probe: no tracing, no stats mutation."""
        if len(key) != self.key_bytes:
            raise self._wrong_length(key)
        primary_hash, index1, signature, index2, addr1, addr2 = (
            self._hash_memo.get(key) or self._indices(key))
        buckets = self._buckets
        kv = self._kv
        kv_base = self._kv_base
        kv_slot_bytes = self._kv_slot_bytes
        signature_mask = _SIGNATURE_MASK
        slot_shift = _SLOT_SHIFT
        primary_probes: List[int] = []
        secondary_probes: List[int] = []
        scanned = compares = 0
        for index, kv_probes in ((index1, primary_probes),
                                 (index2, secondary_probes)):
            scanned += 1
            bucket = buckets[index]
            for entry in bucket:
                if entry & signature_mask != signature:
                    continue
                slot = entry >> slot_shift
                kv_probes.append(kv_base + slot * kv_slot_bytes)
                stored = kv[slot]
                if stored is not None and stored[0] == key:
                    # Entries hold distinct slots, so ``index`` finds
                    # this one: every entry up to it was compared.
                    return LookupPlan(
                        key, primary_hash, signature, index1, index2,
                        addr1, addr2, scanned,
                        compares + bucket.index(entry) + 1,
                        primary_probes, secondary_probes,
                        True, scanned == 2, stored[1], slot)
            compares += len(bucket)
            if index2 == index1:
                break  # degenerate: both candidates are the same bucket
        return LookupPlan(key, primary_hash, signature, index1, index2,
                          addr1, addr2, scanned, compares,
                          primary_probes, secondary_probes)

    # -- lookup (software path, traced) ---------------------------------------------
    def lookup(self, key: bytes, key_addr: Optional[int] = None) -> Any:
        """Find ``key``; returns the stored value or ``None``.

        Emits the software lookup's memory trace and instruction mix into
        the table's tracer (paper §4.3 query procedure, DPDK both-bucket
        prefetch included).
        """
        stats = self.stats
        tracer = self.tracer
        # A lookup's trace, value, hit flag and collision count are a
        # pure function of the key and the table's contents, so memoise
        # them per key, stamped with ``_mutations``: any insert or delete
        # invalidates (NFV key streams repeat flows constantly; the real
        # hardware's flow cache exploits exactly this locality).
        # ``key_addr`` callers place the key load at a caller-chosen
        # address, so only the default-scratch form is cached.
        memoise = tracer.enabled and key_addr is None
        if memoise:
            cached = self._trace_memo.get(key)
            if cached is not None and cached[0] == self._mutations:
                _stamp, ops, mix, value, found, extra_compares = cached
                stats.lookups += 1
                if found:
                    stats.hits += 1
                stats.sig_collisions += extra_compares
                tracer.emit_trace(ops, 2, mix)
                return value
        plan = self.probe(key)
        stats.lookups += 1
        if plan.found:
            stats.hits += 1
        extra_compares = max(0, len(plan.kv_probes_primary)
                             + len(plan.kv_probes_secondary) - 1)
        stats.sig_collisions += extra_compares

        if tracer.enabled:
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
            if memoise:
                memo = self._trace_memo
                if len(memo) >= self._HASH_MEMO_CAP:
                    memo.clear()
                memo[key] = (self._mutations, ops, mix, plan.value,
                             plan.found, extra_compares)
        return plan.value

    # -- insert -----------------------------------------------------------------------
    def insert(self, key: bytes, value: Any) -> bool:
        """Insert or update ``key``; returns False only if the table is full."""
        if len(key) != self.key_bytes:
            raise self._wrong_length(key)
        _hash, index1, signature, index2, _addr1, _addr2 = (
            self._hash_memo.get(key) or self._indices(key))
        return self._place((key, value), index1, signature, index2)

    def insert_many(self, items: Iterable[Tuple[bytes, Any]]) -> List[bool]:
        """:meth:`insert` of every ``(key, value)`` pair, in order; returns
        each insert's result.

        Checks every key's length before it changes anything, then hashes
        the keys :data:`INSERT_CHUNK_KEYS` at a time in one numpy pass
        (:func:`hash_many`) and places each pair through the routine
        :meth:`insert` runs.
        """
        pairs = list(items)
        key_bytes = self.key_bytes
        for position, pair in enumerate(pairs):
            key, value = pair
            if len(key) != key_bytes:
                raise self._wrong_length(key)
            if type(pair) is not tuple:
                # Pairs are stored as the key-value entries themselves.
                pairs[position] = (key, value)
        place = self._place
        mask = self._mask
        results: List[bool] = []
        chunk_keys = INSERT_CHUNK_KEYS
        for start in range(0, len(pairs), chunk_keys):
            chunk = pairs[start:start + chunk_keys]
            hashes = hash_many([pair[0] for pair in chunk], key_bytes,
                               self.seed).tolist()
            for pair, primary_hash in zip(chunk, hashes):
                index1 = primary_hash & mask
                signature = signature_of(primary_hash)
                results.append(place(
                    pair, index1, signature,
                    secondary_index(index1, signature, mask)))
        return results

    def insert_planned(self, plan: LookupPlan, value: Any) -> bool:
        """:meth:`insert` of ``plan.key``, reusing ``plan`` instead of
        probing again.

        ``plan`` is this table's :meth:`probe` of the key, and ``plan.key``
        has not been inserted or deleted since; operations on other keys
        may have run.  Its hash, signature, bucket indices and addresses
        are pure functions of the key, and its ``found`` and ``slot`` stay
        true: other keys' inserts and deletes claim and free other slots,
        and kicks move bucket entries, never key-value slots.
        """
        return self._place((plan.key, value), plan.primary_index,
                           plan.signature, plan.secondary_index, plan.slot)

    def _place(self, pair: Tuple[bytes, Any], index1: int, signature: int,
               index2: int, slot: Any = _UNPROBED) -> bool:
        """Insert or update ``pair``'s key from its hash geometry: the one
        placement routine behind every insert.

        ``slot`` is the key's key-value slot (None: absent) when the
        caller has probed the key; otherwise both buckets are scanned for
        it, primary first.  A present key's pair is replaced in place.  A
        new one is appended to its primary bucket if it has room, else
        to its secondary one, else to the bucket a BFS kick path frees.
        """
        key = pair[0]
        buckets = self._buckets
        kv = self._kv
        self._mutations += 1
        stats = self.stats
        stats.inserts += 1
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            layout = self.layout
            tracer.load(self._key_scratch, self.key_bytes)
            tracer.barrier()
            tracer.load(layout.bucket_addr(index1), 64)
            tracer.load(layout.bucket_addr(index2), 64)
            tracer.barrier()
            tracer.count(loads=INSERT_MIX.loads, stores=INSERT_MIX.stores,
                         arithmetic=INSERT_MIX.arithmetic,
                         others=INSERT_MIX.others)
        if slot is _UNPROBED:
            slot = None
            for index in (index1, index2):
                for entry in buckets[index]:
                    if (entry & _SIGNATURE_MASK == signature
                            and kv[entry >> _SLOT_SHIFT][0] == key):
                        slot = entry >> _SLOT_SHIFT
                        break
                if slot is not None or index2 == index1:
                    break
        if slot is not None:
            kv[slot] = pair
            if traced:
                tracer.store(layout.kv_addr(slot), layout.kv_slot_bytes)
            return True

        assoc = self.assoc
        # A plain slot claim is a single-entry write — readers never see
        # a torn state, so no version bump (rte_hash behaviour).
        if len(buckets[index1]) < assoc:
            destination = index1
        elif len(buckets[index2]) < assoc:
            destination = index2
        else:
            path = self._find_kick_path(index1, index2)
            if path is None:
                stats.insert_failures += 1
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
        freed = self._freed_slots
        if freed:
            slot = freed.pop()
        elif self._next_slot < len(kv):
            slot = self._next_slot
            self._next_slot = slot + 1
        else:
            raise TableFull(f"{self.name}: key-value array exhausted")
        kv[slot] = pair
        buckets[destination].append(slot << _SLOT_SHIFT | signature)
        self._size += 1
        if traced:
            tracer.barrier()
            tracer.store(layout.kv_addr(slot), layout.kv_slot_bytes)
            tracer.store(layout.bucket_addr(destination), 64)
        return True

    # -- BFS cuckoo displacement ---------------------------------------------------
    def _find_kick_path(self, index1: int,
                        index2: int) -> Optional[List[Tuple[int, int]]]:
        """BFS for a chain of moves freeing a slot in ``index1`` or
        ``index2``, both full.

        Returns ``[(bucket, entry_position), ...]`` from the bucket that will
        receive the new key down to the bucket with a free slot, or ``None``.

        The search pops buckets in breadth-first order, primary first and
        a bucket's entries in order, and takes the first bucket with room
        among the first :data:`MAX_BFS_NODES` it pops, at most
        :data:`MAX_KICK_DEPTH` hops deep.  A bucket is checked for room
        when it is queued: nothing changes during the search, so the
        first queued bucket with room is the first popped one, and it is
        the answer if its queue position and depth are within those
        limits; otherwise no later bucket can be, and there is no path.
        Nodes queued ahead of it are never expanded.
        """
        buckets = self._buckets
        assoc = self.assoc
        mask = self._mask
        alt_mix = ALT_BUCKET_MIX
        max_nodes = MAX_BFS_NODES
        max_depth = MAX_KICK_DEPTH
        # Each node: (bucket_index, parent_node, position, depth), where
        # ``position`` is the parent-bucket entry that would move here;
        # the path is rebuilt from the parent links only once found.
        queue: deque = deque()
        queue.append((index1, None, -1, 0))
        if index2 != index1:
            queue.append((index2, None, -1, 0))
        queued = len(queue)
        visited = {index1, index2}
        while queue:
            node = queue.popleft()
            bucket_index, _parent, _position, depth = node
            if depth >= max_depth:
                # Its children, and every node left, are too deep.
                return None
            for entry_position, entry in enumerate(buckets[bucket_index]):
                # ``secondary_index`` inlined: one dict read per entry.
                alt = (bucket_index ^ alt_mix[entry & _SIGNATURE_MASK
                                              | ALT_BUCKET_BITS]) & mask
                if alt in visited:
                    continue
                queued += 1
                if queued > max_nodes:
                    return None
                if len(buckets[alt]) < assoc:
                    path = [(alt, -1), (bucket_index, entry_position)]
                    parent, position = node[1], node[2]
                    while parent is not None:
                        path.append((parent[0], position))
                        _bucket, parent, position, _depth = parent
                    path.reverse()
                    return path
                visited.add(alt)
                queue.append((alt, node, entry_position, depth + 1))
        return None

    def _apply_kick_path(self, path: List[Tuple[int, int]]) -> None:
        """Execute the moves, last hop first ("cuckoo move", Figure 7a)."""
        # path = [(b0,-1)] means b0 already has room; longer paths record the
        # entry positions to displace at each intermediate bucket.
        moves = [(bucket, position) for bucket, position in path
                 if position >= 0]
        for bucket_index, position in reversed(moves):
            entry = self._buckets[bucket_index][position]
            destination = (bucket_index
                           ^ ALT_BUCKET_MIX[entry & _SIGNATURE_MASK
                                            | ALT_BUCKET_BITS]) & self._mask
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
        plan = self.probe(key)
        self._mutations += 1
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

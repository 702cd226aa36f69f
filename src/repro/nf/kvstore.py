"""A MemC3-style in-memory key-value store — the paper's §4.8 extension.

"MemC3 applied exactly the same cuckoo hash table described in this paper
to memcached ... We believe HALO can be easily integrated into the
aforementioned applications with the three extended x86-64 instructions."

This module does exactly that: a GET/SET key-value cache whose index is
the repository's cuckoo table, with GETs runnable in software or through
``LOOKUP_B``/``LOOKUP_NB``.  SETs stay on the software path (HALO
accelerates lookups; updates remain the CPU's job, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple

from ..hashtable.hashing import hash_bytes
from ..sim.stats import RunningStats


def _index_key(key: bytes, key_bytes: int = 16) -> bytes:
    """Arbitrary-length keys map to fixed-size index keys (MemC3 stores a
    tag + pointer; we fold long keys through the hash)."""
    if len(key) == key_bytes:
        return key
    digest = hash_bytes(key, seed=0x6B65)
    folded = digest.to_bytes(8, "little") + len(key).to_bytes(8, "little")
    return folded[:key_bytes]


@dataclass
class KvStats:
    gets: int = 0
    get_hits: int = 0
    sets: int = 0
    get_cycles: RunningStats = field(default_factory=RunningStats)
    set_cycles: RunningStats = field(default_factory=RunningStats)

    @property
    def hit_rate(self) -> float:
        return self.get_hits / self.gets if self.gets else 0.0


class KeyValueStore:
    """GET/SET cache over a HALO-acceleratable cuckoo index."""

    def __init__(self, system, capacity: int = 1 << 16,
                 use_halo: bool = False, core_id: int = 0,
                 name: str = "kv") -> None:
        self.system = system
        self.use_halo = use_halo
        self.core_id = core_id
        self.table = system.create_table(capacity, name=f"{name}.index")
        self._engine = system.software_engine(core_id)
        self.stats = KvStats()

    # -- operations ---------------------------------------------------------------
    def set(self, key: bytes, value: Any) -> bool:
        """Store a value; always the software path (traced insert)."""
        ok, result = self._engine.insert(self.table, _index_key(key),
                                         (key, value))
        self.stats.sets += 1
        self.stats.set_cycles.record(result.cycles)
        return ok

    def get(self, key: bytes) -> Tuple[Optional[Any], float]:
        """Fetch a value; returns (value or None, cycles spent)."""
        index_key = _index_key(key)
        if self.use_halo:
            episode = self.system.run_blocking_lookups(
                self.table, [index_key], core_id=self.core_id)
            stored = episode.results[0].value
            cycles = episode.cycles
        else:
            stored, result = self._engine.lookup(self.table, index_key)
            cycles = result.cycles
        self.stats.gets += 1
        self.stats.get_cycles.record(cycles)
        if stored is None or stored[0] != key:
            return None, cycles
        self.stats.get_hits += 1
        return stored[1], cycles

    def get_many(self, keys: Iterable[bytes]) -> Tuple[List[Any], float]:
        """Batched GETs: the LOOKUP_NB + SNAPSHOT_READ idiom in HALO mode."""
        keys = list(keys)
        if not self.use_halo:
            values = []
            total = 0.0
            for key in keys:
                value, cycles = self.get(key)
                values.append(value)
                total += cycles
            return values, total
        index_keys = [_index_key(key) for key in keys]
        episode = self.system.run_nonblocking_lookups(
            self.table, index_keys, core_id=self.core_id)
        values: List[Any] = []
        for key, result in zip(keys, episode.results):
            self.stats.gets += 1
            self.stats.get_cycles.record(episode.cycles_per_op)
            stored = result.value
            if stored is not None and stored[0] == key:
                self.stats.get_hits += 1
                values.append(stored[1])
            else:
                values.append(None)
        return values, episode.cycles

    def delete(self, key: bytes) -> bool:
        return self.table.delete(_index_key(key))

    def __len__(self) -> int:
        return len(self.table)

    def warm(self) -> None:
        self.system.warm_table(self.table)

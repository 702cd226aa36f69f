"""Simplified directory coherence: a snoop filter with core-valid bits.

The LLC's CHA keeps, per line, the set of private caches (cores) that may
hold the line, plus HALO's extra core-valid bit marking presence in an
accelerator's metadata cache (paper §4.3).  We model the *cost-relevant*
subset of MESI:

* a store to a line present in other cores triggers invalidations
  (``snoop_invalidate`` latency, one round trip regardless of sharer count —
  snoops travel in parallel);
* an invalidation attempt against a line whose HALO lock bit is set gets a
  "snoop miss" and must retry (paper §4.4), modelled as bounded retries.

Public contract: the sharer map holds a line only while some core is
listed for it, so a listed line's sharer set is never empty:
:meth:`SnoopFilter.record_fill` creates a line's set on its first sharer
and adds to it after, and :meth:`~SnoopFilter.record_eviction` drops a
line's entry when its last sharer goes.  :meth:`~SnoopFilter.sharers_of`
and :meth:`~SnoopFilter.other_sharers` return copies, which a caller may
change freely.  The memory hierarchy's inlined access walk reads and
updates the sharer and metadata-holder maps directly on these terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set


@dataclass
class CoherenceStats:
    invalidation_rounds: int = 0
    lines_invalidated: int = 0
    snoop_misses: int = 0       # refused by a HALO lock bit
    metadata_snoops: int = 0    # snoops routed into a metadata cache


class SnoopFilter:
    """Tracks which cores (and metadata caches) may hold each line."""

    def __init__(self, cores: int, slices: int) -> None:
        self.cores = cores
        self.slices = slices
        self.stats = CoherenceStats()
        self._sharers: Dict[int, Set[int]] = {}
        # HALO's additional CV bit: line -> slice whose metadata cache holds it.
        self._metadata_holder: Dict[int, int] = {}

    # -- sharer tracking -------------------------------------------------------
    def record_fill(self, line: int, core_id: int) -> None:
        sharers = self._sharers.get(line)
        if sharers is None:
            self._sharers[line] = {core_id}
        else:
            sharers.add(core_id)

    def record_eviction(self, line: int, core_id: int) -> None:
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(core_id)
            if not sharers:
                self._sharers.pop(line, None)

    def drop_lines(self, first: int, last: int) -> None:
        """Forget every sharer of lines ``first`` to ``last`` (inclusive):
        :meth:`record_eviction` of each line for every core, since every
        sharer is a core.  Walks the range or the tracked lines, whichever
        is shorter."""
        sharers = self._sharers
        if last - first + 1 <= len(sharers):
            for line in range(first, last + 1):
                sharers.pop(line, None)
        else:
            for line in [line for line in sharers if first <= line <= last]:
                del sharers[line]

    def sharers_of(self, line: int) -> Set[int]:
        return set(self._sharers.get(line, ()))

    def other_sharers(self, line: int, core_id: int) -> Set[int]:
        return self.sharers_of(line) - {core_id}

    # -- HALO metadata-cache CV bit (paper §4.3) -------------------------------
    def set_metadata_holder(self, line: int, slice_id: int) -> None:
        self._metadata_holder[line] = slice_id

    def clear_metadata_holder(self, line: int) -> None:
        self._metadata_holder.pop(line, None)

    def metadata_holder(self, line: int) -> int:
        """Slice holding the line in its metadata cache, or -1."""
        return self._metadata_holder.get(line, -1)

    # -- invalidation cost model -----------------------------------------------
    def invalidate_for_store(self, line: int, writer_core: int,
                             locked: bool = False) -> dict:
        """Account a write needing exclusive ownership.

        Returns ``{"sharers": n, "snoop_miss": bool, "metadata_snoop": bool}``.
        When ``locked`` (HALO lock bit set on the LLC copy), the invalidation
        is refused and must be retried by the caller.
        """
        result = {"sharers": 0, "snoop_miss": False, "metadata_snoop": False}
        if locked:
            self.stats.snoop_misses += 1
            result["snoop_miss"] = True
            return result
        others = self.other_sharers(line, writer_core)
        if others:
            self.stats.invalidation_rounds += 1
            self.stats.lines_invalidated += len(others)
            self._sharers[line] = {writer_core}
            result["sharers"] = len(others)
        else:
            self.record_fill(line, writer_core)
        if line in self._metadata_holder:
            # Read-for-ownership also invalidates the metadata-cache copy.
            self.stats.metadata_snoops += 1
            self._metadata_holder.pop(line, None)
            result["metadata_snoop"] = True
        return result

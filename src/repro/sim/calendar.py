"""The DES engine's calendar queue: the event-ordering data structure.

The engine's hot loop is *pop the earliest ``(time, seq, task, value)``
entry, dispatch, repeat* — every simulated cycle of every experiment goes
through it, so the calendar's constant factors dominate end-to-end speed.
:class:`BucketCalendar` is a slot/bucketed calendar: entries live in
per-cycle buckets keyed on ``floor(time)``, and a much smaller overflow
heap orders only the *occupied cycles*.  Scheduling into the current or a
nearby cycle — the overwhelmingly common case: same-cycle wakes,
zero-delay yields, cache-hit latencies a few hundred cycles out — is a
dict probe plus a push into a tiny per-cycle heap (usually a single
comparison, since sequence numbers arrive in increasing order).  Far-
future timeouts pay one extra ``O(log C)`` push where ``C`` is the number
of distinct occupied cycles, typically orders of magnitude smaller than
the entry count.

Ordering contract: entries pop in strictly increasing ``(time, seq)``
order, where ``seq`` is the engine's global insertion counter — events
scheduled for the same time fire in insertion order, exactly as from one
flat binary heap over every entry (the original engine, frozen in
``tests/sim/legacy_engine.py``, which the equivalence suite holds this
calendar and the engine to).  The bucket invariant that makes the split
sound: every entry in bucket ``c`` has ``floor(time) == c``, so its time
is strictly less than any entry of a higher bucket; within a bucket the
per-cycle heap restores the exact ``(time, seq)`` order, including
fractional times that share a floor.

Entries are plain tuples ``(time, seq, task, value)`` — ``seq`` is
globally unique, so a comparison never reaches the (uncomparable) task.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

#: One calendar entry: (time, sequence, task, send-value).
Entry = Tuple[float, int, Any, Any]


class BucketCalendar:
    """Per-cycle buckets plus an overflow heap of occupied cycles.

    ``_buckets`` maps ``floor(time) -> per-cycle min-heap of entries``;
    ``_cycles`` is a min-heap holding each occupied cycle exactly once
    (pushed when its bucket is created, popped when it drains).  The
    common short-delay schedule is O(1): the target bucket already
    exists, and pushing a monotonically increasing ``(time, seq)`` onto
    its heap terminates after one comparison.  Pops cost ``O(log k)`` on
    the *bucket* size ``k`` — independent of how many far-future entries
    are parked in other buckets.
    """

    __slots__ = ("_buckets", "_cycles")

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._cycles: List[int] = []

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __bool__(self) -> bool:
        return bool(self._cycles)

    def push(self, when: float, seq: int, task: Any, value: Any) -> None:
        cycle = int(when)
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = bucket = []
            heappush(self._cycles, cycle)
        heappush(bucket, (when, seq, task, value))

    def pop(self) -> Entry:
        cycles = self._cycles
        bucket = self._buckets[cycles[0]]
        entry = heappop(bucket)
        if not bucket:
            del self._buckets[heappop(cycles)]
        return entry

    def min_time(self) -> Optional[float]:
        """Earliest pending time, or ``None`` when empty."""
        if not self._cycles:
            return None
        return self._buckets[self._cycles[0]][0][0]

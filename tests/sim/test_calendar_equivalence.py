"""Property suite: the engine matches the frozen heap-based engine.

The bucketed calendar (:class:`repro.sim.calendar.BucketCalendar`), the
engine's specialised drain loop (fused wakes) and its ``Timeout``
free-list replaced parts of the original binary-heap engine, which
survives frozen in :mod:`tests.sim.legacy_engine`.  These properties
are what make the swap safe.  Two layers:

* **Calendar-level** — push randomized ``(time, seq)`` schedules into the
  bucket calendar and into a plain ``heapq`` list (interleaving pushes and
  pops, same-cycle ties, fractional times sharing a floor, far-future
  outliers) and assert the pop sequences are identical.
* **Engine-level** — run randomized process programs (zero-delay
  self-wakes, same-cycle ties, far-future timeouts, spawned children,
  fired timeouts kept and yielded again) on the live engine and on the
  frozen one, and assert identical execution traces, final clocks, and
  event counts.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine as live_engine
from repro.sim.calendar import BucketCalendar

from . import legacy_engine

# ---------------------------------------------------------------------------
# calendar-level equivalence


# Times deliberately collide: integer ties, fractional times sharing a
# floor, and far-future outliers that land in the bucket calendar's
# overflow path.
_TIMES = st.sampled_from(
    [0, 0, 1, 1, 2, 3, 5, 7, 40, 200, 1000, 10**6, 10**9,
     0.5, 0.25, 1.5, 1.75, 2.5, 40.125, 999.875])


@settings(max_examples=200, deadline=None)
@given(st.lists(_TIMES, min_size=0, max_size=60),
       st.data())
def test_calendars_pop_identically(times, data):
    """Same pushes (with interleaved pops) -> the pop sequence of a heap."""
    heap, bucket = [], BucketCalendar()
    popped = []
    floor = 0.0  # engine invariant: never schedule into the past
    for seq, when in enumerate(times):
        entry = (max(when, floor), seq, f"task{seq}", seq)
        heappush(heap, entry)
        bucket.push(*entry)
        if data.draw(st.booleans(), label="pop now"):
            expected = heappop(heap)
            assert bucket.pop() == expected
            floor = expected[0]
            popped.append(expected)
    assert len(bucket) == len(heap)
    while heap:
        assert bucket.min_time() == heap[0][0]
        expected = heappop(heap)
        assert bucket.pop() == expected
        popped.append(expected)
    assert not bucket and bucket.min_time() is None
    # Over the full run times are non-decreasing and ties pop in seq order.
    drained = [(entry[0], entry[1]) for entry in popped]
    assert drained == sorted(drained)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_TIMES, st.integers(0, 3)),
                min_size=1, max_size=40))
def test_same_cycle_fifo_order(entries):
    """Entries pushed for one cycle pop in push (seq) order."""
    calendar = BucketCalendar()
    for seq, (when, _jitter) in enumerate(entries):
        calendar.push(float(math.floor(when)), seq, None, seq)
    popped = []
    while calendar:
        popped.append(calendar.pop())
    by_time = {}
    for when, seq, _task, _value in popped:
        by_time.setdefault(when, []).append(seq)
    for seqs in by_time.values():
        assert seqs == sorted(seqs)


# ---------------------------------------------------------------------------
# engine-level equivalence


#: Delays a worker can yield: zero-delay self-wakes, same-cycle ties,
#: short cache-ish latencies, fractional cycles, and far-future parks.
_DELAYS = [0, 0, 1, 1, 2, 3, 5, 40, 200, 1000, 0.5, 2.5, 10**7]

_ACTIONS = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("spawn"),
              st.lists(st.sampled_from(_DELAYS), min_size=0, max_size=4)),
)

#: ``_ACTIONS`` plus keeping a timeout and yielding a kept one again — the
#: records the free-list must never hand out while someone holds them.
_HOLDING_ACTIONS = st.one_of(
    _ACTIONS,
    st.tuples(st.just("hold"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("reyield"), st.integers(0, 9)),
)


def _programs(actions):
    return st.lists(st.lists(actions, min_size=1, max_size=8),
                    min_size=1, max_size=5)


def _run_schedule(engine_module, programs):
    """Interpret the randomized programs; return (trace, now, events)."""
    engine = engine_module.Engine()
    trace = []
    held = []      # timeouts kept by ``hold``, yielded again by ``reyield``

    def child(cid, delays):
        for step, delay in enumerate(delays):
            yield engine.timeout(delay)
            trace.append(("child", cid, step, engine.now))

    def worker(wid, actions):
        for step, action in enumerate(actions):
            kind = action[0]
            if kind == "timeout":
                yield engine.timeout(action[1])
            elif kind == "spawn":
                cid = (wid, step)
                engine.process(child(cid, action[1]), name=f"child{cid}")
            elif kind == "hold":
                held.append(engine.timeout(action[1]))
                yield held[-1]
            else:  # reyield: fired -> same-cycle resume, pending -> join it
                yield held[action[1] % len(held)] if held \
                    else engine.timeout(0)
            trace.append(("worker", wid, step, engine.now))

    for wid, actions in enumerate(programs):
        engine.process(worker(wid, actions), name=f"worker{wid}")
    engine.run()
    return trace, engine.now, engine.events_processed


@settings(max_examples=120, deadline=None)
@given(_programs(_ACTIONS))
def test_engines_execute_identically(programs):
    """Live and frozen engines: same trace, same clock, same event count."""
    assert (_run_schedule(live_engine, programs)
            == _run_schedule(legacy_engine, programs))


@settings(max_examples=120, deadline=None)
@given(_programs(_HOLDING_ACTIONS))
def test_timeout_freelist_is_invisible(programs):
    """Recycling fired Timeout records must be pure allocation reuse.

    The live engine recycles every fired timeout nothing references; the
    frozen engine allocates afresh each time.  Programs that keep timeouts
    and yield them again must still run identically on both.
    """
    assert (_run_schedule(live_engine, programs)
            == _run_schedule(legacy_engine, programs))


def test_fired_timeouts_are_recycled():
    """The free-list actually engages on the common yield-a-fresh-timeout
    loop, so the invisibility property above is not vacuous."""
    engine = live_engine.Engine()

    def ticker():
        for _ in range(10):
            yield engine.timeout(1)

    engine.run_process(ticker())
    assert engine._timeout_pool


def test_default_engine_is_bucketed():
    assert isinstance(live_engine.Engine()._calendar, BucketCalendar)

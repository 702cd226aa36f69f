"""Drift-calibrated host timing.

Wall time on a shared host drifts by tens of percent from run to run: on
the reference host (a 2-vCPU KVM guest on an Intel Xeon) the vCPUs switch,
every second or so, between an uncontended state and one about 1.7x slower
(a busy neighbour on the same physical core; CPU time slows with it, so
``process_time`` does not help).  The clock here samples a
fixed pure-Python kernel every ``SAMPLE_EVERY_S`` seconds and rescales each
timed interval by ``(reference_s / k) ** alpha``, where ``k`` is the median
of the kernel samples bracketing the interval.  Calibrated intervals are in
seconds of the reference host state (``reference.json``); raw ones move.

Workloads feel contention less than the kernel does (a 1.7x slower kernel
comes with 1.2x to 1.8x slower workloads), so ``alpha`` is fitted per
workload from the log-log slope of sample time against ``k`` in the
baseline runs; ``alpha = 1`` would over-correct most of them.

The kernel chases pointers through a prebuilt 512-entry dict of slotted
objects with a method call per step.  It creates no objects (the keys are
prebuilt ints, the frames live on the interpreter's data stack), so it
never triggers the cyclic garbage collector and its duration measures the
host, not the heap.
"""

from __future__ import annotations

import bisect
import json
import math
import pathlib
import random
import statistics
import time
from typing import Dict, List

REFERENCE_FILE = pathlib.Path(__file__).with_name("reference.json")

#: Minimum spacing between two kernel samples.
SAMPLE_EVERY_S = 0.025
#: Kernel steps: about 0.1 ms uncontended, so sampling costs under 1%.
KERNEL_STEPS = 2048
RING_SIZE = 512


class _Node:
    __slots__ = ("nxt",)

    def __init__(self, nxt: int) -> None:
        self.nxt = nxt

    def follow(self) -> int:
        return self.nxt


def _build_ring() -> Dict[int, _Node]:
    order = list(range(RING_SIZE))
    random.Random(7).shuffle(order)
    return {key: _Node(order[(index + 1) % RING_SIZE])
            for index, key in enumerate(order)}


def _kernel(ring: Dict[int, _Node], steps: int) -> int:
    key = 0
    for _ in range(steps):
        key = ring[key].follow()
    return key


def load_reference(path: pathlib.Path = REFERENCE_FILE) -> dict:
    """The committed reference-host constants (see README)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class CalibratedClock:
    """Kernel samples over the run, and intervals rescaled by them.

    ``times[i]`` is the ``perf_counter`` midpoint of kernel sample ``i`` and
    ``kernel[i]`` its duration.  Intervals are raw ``perf_counter`` pairs;
    kernel time spent inside an interval is subtracted before scaling.
    """

    def __init__(self, reference_s: float, alpha: float = 1.0) -> None:
        if reference_s <= 0:
            raise ValueError("reference_s must be positive")
        self.reference_s = reference_s
        self.alpha = alpha
        self.times: List[float] = []
        self.kernel: List[float] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._spent: List[float] = [0.0]  # cumulative kernel time
        self._ring = _build_ring()
        self._last = float("-inf")

    def sample(self) -> None:
        """Run the kernel once and record its duration.

        One untimed lap of the ring first pulls it back into the caches the
        workload just used, so the timed laps measure the core's speed, not
        what the previous sample evicted.
        """
        start = time.perf_counter()
        _kernel(self._ring, RING_SIZE)
        timed = time.perf_counter()
        _kernel(self._ring, KERNEL_STEPS)
        end = time.perf_counter()
        self.add_sample(start, end, end - timed)

    def add_sample(self, start: float, end: float,
                   duration: float = None) -> None:
        """Record a kernel sample that occupied ``[start, end]`` and timed
        ``duration`` (default: the whole span)."""
        self.times.append((start + end) / 2)
        self.kernel.append(end - start if duration is None else duration)
        self._starts.append(start)
        self._ends.append(end)
        self._spent.append(self._spent[-1] + (end - start))
        self._last = end

    def maybe_sample(self) -> None:
        """Sample when at least ``SAMPLE_EVERY_S`` has passed since the
        last one."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def host_kernel(self, start: float, end: float) -> float:
        """Median of the samples bracketing the interval: the last one
        before ``start``, every one inside, the first after ``end``."""
        times = self.times
        if not times:
            raise RuntimeError("no kernel samples taken")
        first = max(0, bisect.bisect_right(times, start) - 1)
        last = min(len(times) - 1, bisect.bisect_left(times, end))
        return statistics.median(self.kernel[first:last + 1])

    def scale(self, start: float, end: float) -> float:
        """The factor that turns the interval's raw seconds into
        reference-host seconds."""
        return (self.reference_s / self.host_kernel(start, end)) ** self.alpha

    def kernel_inside(self, start: float, end: float) -> float:
        """Kernel time of the samples that ran wholly inside the interval."""
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_right(self._ends, end)
        if last <= first:
            return 0.0
        return self._spent[last] - self._spent[first]

    def raw(self, start: float, end: float) -> float:
        """Wall seconds of the interval, kernel samples excluded."""
        return (end - start) - self.kernel_inside(start, end)

    def calibrated(self, start: float, end: float) -> float:
        """The interval in reference-host seconds."""
        return self.raw(start, end) * self.scale(start, end)

    def cv(self) -> float:
        """Coefficient of variation of the kernel samples."""
        if len(self.kernel) < 2:
            return 0.0
        return statistics.pstdev(self.kernel) / statistics.fmean(self.kernel)


def fit_alpha(groups: List[List[List[tuple]]]) -> float:
    """The ``alpha`` that makes repeated runs agree best.

    ``groups`` holds, per group of comparable runs (one workload, or one
    experiment grid point), each run's ``(raw seconds, work, kernel)``
    windows.  Returns the ``alpha`` in [0, 1.5] minimising the summed
    variance, within each group, of the log of each run's calibrated rate.
    """
    def spread(alpha: float) -> float:
        total = 0.0
        for runs in groups:
            logs = [math.log(sum(work for _s, work, _k in windows)
                             / sum(seconds * k ** -alpha
                                   for seconds, _w, k in windows))
                    for windows in runs]
            if len(logs) > 1:
                total += statistics.pvariance(logs)
        return total

    return min((step / 100 for step in range(151)), key=spread)

"""The metrics registry: counters, gauges, fixed-bucket latency histograms.

Every simulator/HALO component publishes its measurements through one
:class:`MetricsRegistry` so experiments can be decomposed into *named*
metrics (``halo.accelerator.service_cycles``, ``mem.core_access.cycles``,
...) instead of ad-hoc attribute pokes.  Two publication styles coexist:

* **push** — hot paths hold :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` handles obtained from the registry and update them
  inline.  Observation never feeds back into the model.  A component
  built without a registry (an :class:`~repro.classifier.emc.ExactMatchCache`
  with ``metrics=None``) holds the shared :data:`NULL_COUNTER` and
  :data:`NULL_HISTOGRAM`, whose mutators are no-ops.
* **pull** — components with existing stats dataclasses register a
  zero-argument callable (:meth:`MetricsRegistry.register_source`); the
  registry invokes it only at :meth:`snapshot` time, so steady-state cost
  is exactly zero.

Histograms use fixed bucket boundaries so that two histograms with the
same boundaries merge exactly (bucket-wise addition) — the property the
``tests/properties`` suite locks in.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Default bucket upper bounds (cycles).  Powers of two spanning an L1 hit
#: (~4 cycles) to far past a DRAM-resident multi-probe lookup (~64k cycles);
#: values above the last bound land in the overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    float(1 << exp) for exp in range(17))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A point-in-time value: either set directly or read via a callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def reset(self) -> None:
        self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram with percentile queries.

    ``bounds`` are inclusive upper bounds of each bucket; one implicit
    overflow bucket catches everything above ``bounds[-1]``.  Percentiles
    interpolate linearly inside the chosen bucket, clamped to the observed
    ``min``/``max`` so estimates never leave the data's range.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "overflow",
                 "count", "sum", "min", "max")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect.bisect_left(self.bounds, value)
        if index == len(self.bounds):
            self.overflow += 1
        else:
            self.bucket_counts[index] += 1

    def observe_many(self, value: float, n: int) -> None:
        """Record ``value`` ``n`` times in one update.

        Core pricing defers its per-access observations and flushes
        them grouped by distinct latency; the resulting
        histogram state (counts, buckets, min/max, sum for the integer
        latencies the hierarchy produces) is identical to ``n`` single
        :meth:`observe` calls.
        """
        if n <= 0:
            return
        self.count += n
        self.sum += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect.bisect_left(self.bounds, value)
        if index == len(self.bounds):
            self.overflow += n
        else:
            self.bucket_counts[index] += n

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimated value at ``fraction`` (0..1) of the distribution."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = fraction * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            cumulative += bucket_count
            if cumulative >= rank:
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index else 0.0
                # Linear interpolation inside the bucket, clamped to the
                # true observed extremes.
                position = 1.0 - (cumulative - rank) / bucket_count
                estimate = lower + (upper - lower) * position
                return min(max(estimate, self.min), self.max)
        # Rank falls in the overflow bucket: the max is the best estimate.
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def merge(self, other: "Histogram") -> "Histogram":
        """Bucket-wise sum of two histograms with identical bounds."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        merged = Histogram(self.name, self.bounds)
        merged.bucket_counts = [a + b for a, b in
                                zip(self.bucket_counts, other.bucket_counts)]
        merged.overflow = self.overflow + other.overflow
        merged.count = self.count + other.count
        merged.sum = self.sum + other.sum
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def reset(self) -> None:
        self.bucket_counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def to_dict(self) -> Dict:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {f"le_{bound:g}": count
                        for bound, count in zip(self.bounds,
                                                self.bucket_counts)
                        if count},
            "overflow": self.overflow,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name}, n={self.count}, "
                f"p50={self.p50:.1f}, p99={self.p99:.1f})")


class _NullCounter(Counter):
    """Shared no-op counter for a component built without a registry."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def inc(self, amount: int = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, value: float, n: int) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Namespace of named metrics with JSON export.

    Metric names are dotted paths (``component.subcomponent.metric``); the
    export groups on the first path segment, which the ``report`` CLI uses
    as the per-component breakdown key.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, Callable[[], Dict]] = {}

    # -- factories (get-or-create by name) ------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, fn)
        return gauge

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def register_source(self, name: str, fn: Callable[[], Dict]) -> None:
        """Attach a pull-style source: ``fn`` returns a flat dict of scalars
        and is invoked only when a snapshot is taken."""
        self._sources[name] = fn

    # -- export ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """All metrics as one flat ``{dotted_name: value}`` mapping.

        Counters/gauges map to numbers, histograms to summary dicts, and
        each pull source's entries are inlined under its name prefix.  A
        source entry whose dotted name is already taken raises
        ``ValueError``: each name has one publisher.
        """
        out: Dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.to_dict()
        for name, fn in self._sources.items():
            for key, value in fn().items():
                dotted = f"{name}.{key}"
                if dotted in out:
                    raise ValueError(
                        f"metric {dotted!r} of pull source {name!r} is "
                        "already published under that name")
                out[dotted] = value
        return dict(sorted(out.items()))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True,
                          default=float)

    def names(self) -> List[str]:
        return sorted(set(self._counters) | set(self._gauges)
                      | set(self._histograms) | set(self._sources))

    def reset(self) -> None:
        """Zero every push metric (pull sources reflect their components)."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()

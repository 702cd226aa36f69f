"""The metrics registry: counters, gauges, histograms, snapshots."""

import json
import math

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_HISTOGRAM,
)


# -- counters / gauges ---------------------------------------------------------
def test_counter_increments_and_resets():
    registry = MetricsRegistry()
    counter = registry.counter("x.count")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    counter.reset()
    assert counter.value == 0


def test_counter_get_or_create_returns_same_object():
    registry = MetricsRegistry()
    assert registry.counter("a.b") is registry.counter("a.b")
    assert registry.counter("a.b") is not registry.counter("a.c")


def test_gauge_set_and_callback():
    registry = MetricsRegistry()
    gauge = registry.gauge("x.level")
    gauge.set(3.5)
    assert gauge.value == 3.5
    state = {"v": 7.0}
    live = registry.gauge("x.live", fn=lambda: state["v"])
    assert live.value == 7.0
    state["v"] = 9.0
    assert live.value == 9.0


# -- histograms ----------------------------------------------------------------
def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=())
    with pytest.raises(ValueError):
        Histogram("h", bounds=(4.0, 2.0))
    with pytest.raises(ValueError):
        Histogram("h", bounds=(1.0, 1.0, 2.0))


def test_histogram_counts_and_moments():
    histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 3.0, 100.0):
        histogram.observe(value)
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(106.0)
    assert histogram.min == 0.5
    assert histogram.max == 100.0
    # bisect_left semantics: a value equal to a bound lands in that bucket.
    assert histogram.bucket_counts == [2, 1, 1]
    assert histogram.overflow == 1


def test_histogram_percentiles_ordered_and_clamped():
    histogram = Histogram("h")
    for value in range(1, 101):
        histogram.observe(float(value))
    p50, p95, p99 = histogram.p50, histogram.p95, histogram.p99
    assert p50 <= p95 <= p99
    assert histogram.min <= p50
    assert p99 <= histogram.max


def test_histogram_percentile_of_empty_is_zero():
    histogram = Histogram("h")
    assert histogram.p50 == 0.0
    assert histogram.percentile(1.0) == 0.0


def test_histogram_percentile_fraction_validated():
    with pytest.raises(ValueError):
        Histogram("h").percentile(1.5)


def test_histogram_overflow_rank_returns_max():
    histogram = Histogram("h", bounds=(1.0,))
    histogram.observe(50.0)
    histogram.observe(60.0)
    assert histogram.p99 == 60.0


def test_histogram_merge_requires_identical_bounds():
    a = Histogram("a", bounds=(1.0, 2.0))
    b = Histogram("b", bounds=(1.0, 4.0))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_merge_adds_bucketwise():
    a = Histogram("a")
    b = Histogram("b")
    for value in (1.0, 3.0, 9.0):
        a.observe(value)
    for value in (2.0, 1e9):
        b.observe(value)
    merged = a.merge(b)
    assert merged.count == 5
    assert merged.overflow == 1
    assert merged.min == 1.0
    assert merged.max == 1e9
    assert sum(merged.bucket_counts) + merged.overflow == 5


def test_histogram_reset():
    histogram = Histogram("h")
    histogram.observe(5.0)
    histogram.reset()
    assert histogram.count == 0
    assert histogram.sum == 0.0
    assert histogram.min == math.inf
    assert histogram.to_dict() == {"count": 0}


def test_histogram_to_dict_shape():
    histogram = Histogram("h")
    histogram.observe(3.0)
    out = histogram.to_dict()
    for key in ("count", "sum", "mean", "min", "max", "p50", "p95", "p99",
                "buckets", "overflow"):
        assert key in out
    assert out["buckets"] == {"le_4": 1}


def test_default_buckets_are_powers_of_two():
    assert DEFAULT_LATENCY_BUCKETS[0] == 1.0
    assert DEFAULT_LATENCY_BUCKETS[-1] == 65536.0
    for left, right in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:]):
        assert right == 2 * left


# -- registry snapshot / export ------------------------------------------------
def test_snapshot_inlines_sources_and_sorts():
    registry = MetricsRegistry()
    registry.counter("z.count").inc(2)
    registry.gauge("a.level").set(1.0)
    registry.register_source("mid.block", lambda: {"x": 1, "y": 2})
    snapshot = registry.snapshot()
    assert snapshot["z.count"] == 2
    assert snapshot["mid.block.x"] == 1
    assert snapshot["mid.block.y"] == 2
    assert list(snapshot) == sorted(snapshot)


def test_snapshot_rejects_a_source_key_shadowing_a_metric():
    registry = MetricsRegistry()
    registry.counter("a.b").inc()
    registry.register_source("a", lambda: {"b": 1})
    with pytest.raises(ValueError, match=r"'a\.b'.*source 'a'"):
        registry.snapshot()


def test_snapshot_histogram_is_summary_dict():
    registry = MetricsRegistry()
    registry.histogram("h.latency").observe(4.0)
    snapshot = registry.snapshot()
    assert snapshot["h.latency"]["count"] == 1


def test_to_json_round_trips():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.histogram("h").observe(2.0)
    parsed = json.loads(registry.to_json())
    assert parsed["c"] == 1
    assert parsed["h"]["count"] == 1


def test_names_covers_all_kinds():
    registry = MetricsRegistry()
    registry.counter("c")
    registry.gauge("g")
    registry.histogram("h")
    registry.register_source("s", dict)
    assert registry.names() == ["c", "g", "h", "s"]


def test_registry_reset_zeroes_push_metrics():
    registry = MetricsRegistry()
    registry.counter("c").inc(5)
    registry.gauge("g").set(2.0)
    registry.histogram("h").observe(1.0)
    registry.reset()
    snapshot = registry.snapshot()
    assert snapshot["c"] == 0
    assert snapshot["g"] == 0.0
    assert snapshot["h"] == {"count": 0}


# -- null objects ---------------------------------------------------------------
def test_null_objects_stay_zero_even_after_use():
    NULL_COUNTER.inc(3)
    assert NULL_COUNTER.value == 0
    NULL_HISTOGRAM.observe(2.0)
    assert NULL_HISTOGRAM.count == 0

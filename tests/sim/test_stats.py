"""Statistics helpers."""

import math

import pytest

from repro.sim import Breakdown, RunningStats, mpkl, throughput_mops


def test_breakdown_add_and_total():
    breakdown = Breakdown()
    breakdown.add("a", 10)
    breakdown.add("a", 5)
    breakdown.add("b", 5)
    assert breakdown["a"] == 15
    assert breakdown.total == 20
    assert breakdown.fraction("a") == pytest.approx(0.75)


def test_breakdown_missing_key_is_zero():
    assert Breakdown()["nothing"] == 0.0
    assert Breakdown().fraction("nothing") == 0.0


def test_breakdown_scaled_and_merged():
    first = Breakdown({"x": 10.0})
    second = Breakdown({"x": 2.0, "y": 4.0})
    merged = first.merged(second)
    assert merged["x"] == 12.0
    scaled = merged.scaled(0.5)
    assert scaled["y"] == 2.0
    # originals untouched
    assert first["x"] == 10.0


def test_breakdown_fractions_sum_to_one():
    breakdown = Breakdown({"a": 3, "b": 7})
    assert sum(breakdown.fractions().values()) == pytest.approx(1.0)


def test_running_stats():
    stats = RunningStats()
    for value in (2.0, 4.0, 6.0):
        stats.record(value)
    assert stats.mean == pytest.approx(4.0)
    assert stats.minimum == 2.0
    assert stats.maximum == 6.0
    assert stats.variance == pytest.approx(4.0)
    assert stats.stddev == pytest.approx(2.0)
    assert stats.total == pytest.approx(12.0)


def test_running_stats_single_value():
    stats = RunningStats()
    stats.record(5.0)
    assert stats.variance == 0.0


def test_throughput_mops():
    # 1000 ops in 1000 cycles at 2.1 GHz = 2100 Mops.
    assert throughput_mops(1000, 1000, 2.1) == pytest.approx(2100.0)
    assert throughput_mops(10, 0) == 0.0


def test_mpkl():
    assert mpkl(5, 1000) == pytest.approx(5.0)
    assert mpkl(5, 0) == 0.0


def test_breakdown_zero_total_fraction_and_fractions_agree():
    """Regression: fraction() and fractions() used to disagree at total=0
    (0.0 vs divide-by-1); both now report all-zero shares."""
    breakdown = Breakdown({"a": 0.0, "b": 0.0})
    assert breakdown.total == 0.0
    assert breakdown.fraction("a") == 0.0
    assert breakdown.fractions() == {"a": 0.0, "b": 0.0}
    for name in breakdown.parts:
        assert breakdown.fractions()[name] == breakdown.fraction(name)


def test_breakdown_empty_fractions():
    assert Breakdown().fractions() == {}


def test_breakdown_fractions_match_fraction_nonzero():
    breakdown = Breakdown({"a": 2.0, "b": 6.0})
    fractions = breakdown.fractions()
    for name in breakdown.parts:
        assert fractions[name] == pytest.approx(breakdown.fraction(name))

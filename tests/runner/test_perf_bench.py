"""`repro bench --perf` smoke: schema-valid, deterministic-in-structure
snapshots plus the regression-gate comparison logic CI trusts."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.runner import perf
from repro.runner.perf import (
    BENCH_NAMES,
    PERF_SCHEMA_VERSION,
    compare_snapshots,
    next_snapshot_path,
    run_perf_suite,
    validate_snapshot,
    write_snapshot,
)

#: Tiny workload for tests — structure-identical to the real shapes.
MICRO_SHAPE = perf._Shape(churn_workers=2, churn_hops=20, churn_parked=50,
                          replay_lookups=40, fig09_lookups=20,
                          multicore_cores=2, multicore_lookups=5, repeats=1,
                          batched_lookups=5, shard_count=2, shard_flows=16, shard_lookups=40,
                          emc_churn_packets=200, emc_churn_entries=32)


@pytest.fixture()
def micro_suite(monkeypatch):
    monkeypatch.setattr(perf, "QUICK_SHAPE", MICRO_SHAPE)
    return lambda: run_perf_suite(quick=True)


def test_quick_suite_is_schema_valid(micro_suite):
    snapshot = micro_suite()
    assert validate_snapshot(snapshot) == []
    assert snapshot["schema_version"] == PERF_SCHEMA_VERSION
    assert snapshot["quick"] is True
    assert isinstance(snapshot["fingerprint"], str)
    assert snapshot["host"]["calibration_ops_per_sec"] > 0
    assert tuple(sorted(snapshot["benches"])) == tuple(sorted(BENCH_NAMES))
    for name, record in snapshot["benches"].items():
        assert record["events"] > 0, name
        assert record["wall_s"] > 0, name
        assert record["events_per_sec"] > 0, name
        assert record["events_per_cal_op"] > 0, name
    # Benches with a reference side must carry the comparison: two run
    # the frozen engine, the rest time their own slow/monolithic mode.
    for name in ("engine_churn", "cache_replay", "multicore_batched",
                 "shard_scaling"):
        assert snapshot["benches"][name]["speedup_vs_legacy"] is not None
    # Lookup benches report a lookup rate; pure-DES churn does not.
    assert snapshot["benches"]["engine_churn"]["lookups_per_sec"] is None
    assert snapshot["benches"]["cache_replay"]["lookups_per_sec"] > 0
    # emc_churn runs no engine: pure host-rate bench, packets as events.
    assert snapshot["benches"]["emc_churn"]["lookups_per_sec"] > 0
    assert snapshot["benches"]["emc_churn"]["speedup_vs_legacy"] is None


def test_structure_is_deterministic_across_runs(micro_suite):
    """Same shape, same host -> identical simulated work; only wall
    time may differ between runs."""
    first, second = micro_suite(), micro_suite()
    assert first["benches"].keys() == second["benches"].keys()
    for name in BENCH_NAMES:
        a, b = first["benches"][name], second["benches"][name]
        assert a.keys() == b.keys()
        assert a["events"] == b["events"], name
        assert a["cycles"] == b["cycles"], name
        assert a["lookups"] == b["lookups"], name


def test_cli_writes_numbered_snapshots(tmp_path, monkeypatch):
    monkeypatch.setattr(perf, "QUICK_SHAPE", MICRO_SHAPE)
    assert main(["bench", "--perf", "--quick",
                 "--perf-out", str(tmp_path)]) == 0
    first = tmp_path / "BENCH_0.json"
    assert first.exists()
    snapshot = json.loads(first.read_text())
    assert validate_snapshot(snapshot) == []
    # A second run must not clobber the first: BENCH_<n> numbering.
    assert next_snapshot_path(tmp_path).name == "BENCH_1.json"
    assert main(["bench", "--perf", "--quick",
                 "--perf-out", str(tmp_path)]) == 0
    assert (tmp_path / "BENCH_1.json").exists()


def test_write_snapshot_roundtrip(tmp_path):
    snapshot = {"schema_version": PERF_SCHEMA_VERSION, "benches": {}}
    path = write_snapshot(snapshot, tmp_path)
    assert json.loads(path.read_text()) == snapshot


def _synthetic(churn_speedup, fig09_rate):
    benches = {}
    for name in BENCH_NAMES:
        benches[name] = {
            "events": 100, "lookups": 10, "cycles": 1.0, "wall_s": 0.1,
            "repeats": 1, "events_per_sec": 1000.0,
            "lookups_per_sec": 100.0,
            "speedup_vs_legacy": (churn_speedup
                                  if name in ("engine_churn",
                                              "cache_replay") else None),
            "events_per_cal_op": fig09_rate,
        }
    return {"schema_version": PERF_SCHEMA_VERSION, "fingerprint": "x",
            "quick": True, "host": {"calibration_ops_per_sec": 1.0},
            "benches": benches}


def test_gate_passes_within_threshold():
    baseline = _synthetic(churn_speedup=2.2, fig09_rate=1.0)
    candidate = _synthetic(churn_speedup=1.8, fig09_rate=0.85)
    assert compare_snapshots(baseline, candidate, threshold=0.25) == []


def test_gate_fails_on_regression():
    baseline = _synthetic(churn_speedup=2.2, fig09_rate=1.0)
    candidate = _synthetic(churn_speedup=1.0, fig09_rate=1.0)
    failures = compare_snapshots(baseline, candidate, threshold=0.25)
    assert failures and all("speedup_vs_legacy" in f for f in failures)
    # Engine-relative metric is preferred, so only the two legacy-paired
    # benches fail; the others ride on the (unchanged) normalised rate.
    assert len(failures) == 2


def test_gate_falls_back_to_normalised_rate():
    baseline = _synthetic(churn_speedup=2.2, fig09_rate=1.0)
    candidate = _synthetic(churn_speedup=2.2, fig09_rate=0.5)
    failures = compare_snapshots(baseline, candidate, threshold=0.25)
    assert failures
    assert all("events_per_cal_op" in f for f in failures)


def test_gate_flags_missing_bench():
    baseline = _synthetic(2.2, 1.0)
    candidate = _synthetic(2.2, 1.0)
    del candidate["benches"]["cache_replay"]
    failures = compare_snapshots(baseline, candidate)
    assert any("cache_replay" in f and "missing" in f for f in failures)


def test_validate_flags_broken_snapshots():
    assert validate_snapshot({}) != []
    broken = _synthetic(2.2, 1.0)
    broken["benches"]["engine_churn"]["events"] = 0
    assert any("no events" in p for p in validate_snapshot(broken))


def test_committed_snapshots_are_valid_and_fast():
    """The checked-in snapshots must parse and validate: the quick
    baseline CI gates against, and the full trajectory snapshots that
    record the campaign's wins.  Old trajectory entries validate against
    the schema they were written with."""
    import pathlib

    perf_dir = (pathlib.Path(__file__).resolve().parents[2]
                / "benchmarks" / "perf")
    baseline = json.loads((perf_dir / "BENCH_baseline.json").read_text())
    assert validate_snapshot(baseline) == []
    assert baseline["quick"] is True
    assert baseline["schema_version"] == PERF_SCHEMA_VERSION

    trajectory = json.loads((perf_dir / "BENCH_0.json").read_text())
    assert validate_snapshot(trajectory) == []
    assert trajectory["quick"] is False
    for name in ("engine_churn", "cache_replay"):
        assert trajectory["benches"][name]["speedup_vs_legacy"] >= 2.0, name

    vector_round = json.loads((perf_dir / "BENCH_1.json").read_text())
    assert validate_snapshot(vector_round) == []
    assert vector_round["quick"] is False
    assert vector_round["schema_version"] == 2
    # The vectorised+windowed round: cache_replay events/sec moved >=1.5x
    # over the previous trajectory point (same container), and the
    # batched multicore composition beats its per-key reference.
    previous_rate = trajectory["benches"]["cache_replay"]["events_per_sec"]
    vector_rate = vector_round["benches"]["cache_replay"]["events_per_sec"]
    assert vector_rate >= 1.5 * previous_rate
    assert (vector_round["benches"]["multicore_batched"]
            ["speedup_vs_legacy"] > 1.0)
    assert (vector_round["benches"]["vector_pricing"]
            ["speedup_vs_legacy"] > 1.0)

    cluster_round = json.loads((perf_dir / "BENCH_2.json").read_text())
    assert validate_snapshot(cluster_round) == []
    assert cluster_round["quick"] is False
    assert cluster_round["schema_version"] == 3
    # The scale-out round adds the sharded-cluster bench to the suite.
    assert (cluster_round["benches"]["shard_scaling"]["speedup_vs_legacy"]
            is not None)
    assert cluster_round["benches"]["shard_scaling"]["events"] > 0

    workloads_round = json.loads((perf_dir / "BENCH_3.json").read_text())
    assert validate_snapshot(workloads_round) == []
    assert workloads_round["quick"] is False
    assert workloads_round["schema_version"] == 4
    # The workloads round adds the cache-policy churn bench to the suite.
    assert workloads_round["benches"]["emc_churn"]["events"] > 0
    assert workloads_round["benches"]["emc_churn"]["lookups_per_sec"] > 0

    latest = json.loads((perf_dir / "BENCH_4.json").read_text())
    assert validate_snapshot(latest) == []
    assert latest["quick"] is False
    assert latest["schema_version"] == PERF_SCHEMA_VERSION
    # One replay loop: windowed replay still beats per-key hops on
    # collocated streams, and cache replay beats the frozen engine.
    assert latest["benches"]["multicore_batched"]["speedup_vs_legacy"] > 1.0
    assert latest["benches"]["cache_replay"]["speedup_vs_legacy"] >= 2.0

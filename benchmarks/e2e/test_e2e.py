"""Self-tests of the end-to-end benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import e2e_metrics  # noqa: E402
import run  # noqa: E402
from e2e_clock import CalibratedClock, fit_alpha, load_reference  # noqa: E402
from e2e_spans import SpanRecorder  # noqa: E402
from e2e_workloads import WORKLOADS, ChurnWorkload  # noqa: E402

#: Sizes that keep every workload under a second.
TINY = {
    "lookup_512k": {"entries": 1 << 10, "fill": 1 << 9, "chunk": 4},
    "vswitch_gateway": {"flows": 300, "warmup": 20},
    "emc_churn": {"packets": 2_000, "warmup": 500, "per_sample": 10},
    "multicore_mixed": {"entries": 256, "keys_per_sample": 3},
    "experiments_quick": {"only": ("fig08", "tab04")},
}


def _bench() -> dict:
    return e2e_metrics.load_benchmark()


WORKLOAD_NAMES = [w["name"] for w in _bench()["workloads"]]


def _run(name: str, seconds: float = 0.3, trace: bool = False) -> dict:
    return run.run_workload(name, seed=3, seconds=seconds, trace=trace,
                            reference=load_reference(), sizes=TINY[name])


# -- declarations ------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert e2e_metrics.check(bench, list(WORKLOADS)) == []
    assert len(bench["end_to_end"]) <= 16 and len(bench["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    assert set(TINY) == set(WORKLOADS)


def test_every_per_layer_metric_maps_to_real_metrics_and_workloads():
    from e2e_spans import TARGETS
    # ``analysis`` spans come from the experiments workload's own calls.
    assert ({target[2] for target in TARGETS} | {"analysis"}
            == set(e2e_metrics.LAYER_MOVES))
    for name, moves in e2e_metrics.PER_LAYER.items():
        for move in moves:
            metric, workload = move.split("@")
            assert metric in e2e_metrics.END_TO_END, name
            assert workload in WORKLOAD_NAMES, name


def test_check_rejects_bad_names_and_mismatches():
    bench = _bench()
    bench["workloads"][0]["name"] = "bad name!"
    bench["end_to_end"].append({"name": "queue_depth", "unit": "count",
                                "better": "lower", "bound": 0.1})
    bench["per_layer"] = [m for m in bench["per_layer"]
                          if m["name"] != "trace.coverage"]
    bench["per_layer"][0]["unit"] = "no spaces"
    problems = e2e_metrics.check(bench, list(WORKLOADS))
    assert "bad name 'bad name!'" in problems
    assert "workload 'lookup_512k' is produced but not declared" in problems
    assert ("end-to-end metric 'queue_depth' is declared but not produced"
            in problems)
    assert ("per-layer metric 'trace.coverage' is produced but not declared"
            in problems)
    assert "bad unit 'no spaces'" in problems


def test_declared_experiments_are_registered():
    from repro.runner.registry import discover
    assert set(e2e_metrics.EXPERIMENTS) <= set(discover())


# -- calibration -------------------------------------------------------------

def test_calibration_scales_by_bracketing_kernel_samples():
    clock = CalibratedClock(reference_s=1.0)
    for start, duration in ((0.0, 1.0), (10.0, 2.0), (20.0, 2.0),
                            (30.0, 4.0)):
        clock.add_sample(start, start + duration)
    # An interval between the first two samples runs at their median.
    assert clock.calibrated(2.0, 8.0) == pytest.approx(6.0 / 1.5)
    # Kernel time inside an interval is not part of it.
    assert clock.raw(5.0, 25.0) == pytest.approx(20.0 - 4.0)
    # Bracketing samples: 1.0 before, 2.0 and 2.0 inside, 4.0 after.
    assert clock.calibrated(5.0, 25.0) == pytest.approx(16.0 / 2.0)
    half = CalibratedClock(reference_s=1.0, alpha=0.5)
    half.add_sample(0.0, 4.0)
    assert half.calibrated(10.0, 11.0) == pytest.approx(0.5)


def test_fit_alpha_finds_the_exponent_that_makes_runs_agree():
    # Each run's windows take base * work * k**0.6 seconds: calibrating
    # with alpha = 0.6 gives every run of a group the same rate.
    def run_windows(base, kernels):
        return [(base * work * k ** 0.6, work, k)
                for work, k in zip((3, 1, 2), kernels)]

    groups = [[run_windows(base, kernels)
               for kernels in ((1.0, 1.1, 1.0), (1.7, 1.6, 1.7),
                               (1.2, 2.0, 1.3))]
              for base in (1.0, 5.0)]
    assert fit_alpha(groups) == pytest.approx(0.6)


def test_weighted_quantile():
    assert run.weighted_quantile([3, 1, 2, 4], [1, 1, 1, 1], 0.5) == 2
    assert run.weighted_quantile([1, 100], [99, 1], 0.99) == 1
    assert run.weighted_quantile([1, 100], [98, 2], 0.99) == 100


# -- spans -------------------------------------------------------------------

class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    tick = _FakeClock()
    recorder = SpanRecorder(clock=tick)
    recorder.phase = "measure"

    def advance(seconds):
        tick.now += seconds

    def leaf():
        advance(2.0)

    def middle():
        advance(1.0)
        recorder.call("leaf", "sim.core", leaf)
        advance(1.0)
        recorder.call("leaf", "sim.core", leaf)

    def root():
        advance(0.5)
        recorder.call("middle", "sim.engine", middle)

    recorder.call("root", "bench", root)
    assert recorder.self_seconds("measure", "sim.core") == pytest.approx(4.0)
    assert recorder.self_seconds("measure", "sim.engine") == pytest.approx(2.0)
    assert recorder.self_seconds("measure", "bench") == pytest.approx(0.5)
    assert recorder.calls("measure", "sim.core") == 2
    spans = recorder.export()["spans"]
    names = [span[0] for span in spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert [span[4] for span in spans] == [-1, 0, 1, 1]


def test_install_wraps_and_uninstall_restores():
    from repro.hashtable.cuckoo import CuckooHashTable
    from repro.traffic import generator

    original_insert = CuckooHashTable.__dict__["insert"]
    original_keys = generator.random_keys
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert CuckooHashTable.__dict__["insert"] is not original_insert
        recorder.phase = "setup"
        table = CuckooHashTable(64)
        for key in generator.random_keys(8, seed=1):
            table.insert(key, 1)
        assert recorder.calls("setup", "hashtable") >= 8
        assert recorder.calls("setup", "traffic") == 1
    finally:
        recorder.uninstall()
    assert CuckooHashTable.__dict__["insert"] is original_insert
    assert generator.random_keys is original_keys


# -- workloads ----------------------------------------------------------------

@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_runs_tiny_and_correct(name):
    first, second = _run(name), _run(name)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert all(value > 0 for value in result["end_to_end"].values())
    assert first["outputs_digest"] == second["outputs_digest"]


def test_run_that_ends_before_the_digest_prefix_is_rejected():
    with pytest.raises(RuntimeError, match="outputs_digest"):
        _run("emc_churn", seconds=0.0)


def test_churn_runs_past_setup_packets_on_the_same_stream():
    # A run that outlasts the packets set-up drew continues the same
    # stream rather than wrapping back to packets the caches have seen.
    def batches(packets):
        workload = ChurnWorkload(5, packets=packets, warmup=500,
                                 per_sample=10)
        workload.build(CalibratedClock(reference_s=1.0))
        return [workload.prepare(index) for index in range(80)]

    assert batches(600) == batches(2_000)


def test_traced_run_reports_every_per_layer_metric():
    bench = _bench()
    result = _run("multicore_mixed", seconds=0.4, trace=True)
    line = run._metric_line(result, trace=True, bench=bench)
    assert set(line["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert line["metrics"]["sim.engine.calls"]["value"] > 0
    assert result["per_layer"]["trace.coverage"] > 0.5


def test_injected_wrong_backend_value_is_counted_as_failed(monkeypatch):
    from repro.core.halo_system import HaloSystem

    honest = HaloSystem.run_backend_lookups

    def lying(self, kind, table, keys, **kwargs):
        episode = honest(self, kind, table, keys, **kwargs)
        if kind == "halo-nb":
            episode.results[0].value = -1
        return episode

    monkeypatch.setattr(HaloSystem, "run_backend_lookups", lying)
    result = _run("lookup_512k")
    assert not result["correct"]
    assert result["failed"] > 0


def test_experiments_count_unexpected_divergences():
    from e2e_workloads import ExperimentsWorkload

    text = ("  SFH LLC misses from 100K flows: paper x | measured y"
            "  [DIVERGES]\n  other: paper a | measured b  [DIVERGES]")
    assert ExperimentsWorkload.divergences("fig04", text) == ["other"]


def test_run_fails_without_the_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "emc_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- compare -----------------------------------------------------------------

def test_compare_verdicts():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "better"
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), "higher", 0.1)[0] == "same"
    noisy = [50, 150, 60, 140, 100, 100, 70, 130, 90, 110]
    assert compare.verdict(noisy, noisy, "higher", 0.1)[0] == "unresolved"
    # Too few pairs to show a gain, however clear; a loss still shows.
    assert compare.verdict(parent[:9], faster[:9], "higher",
                           0.1) == ("unresolved", 9)
    assert compare.verdict(parent[:1], faster[:1], "higher",
                           0.1) == ("unresolved", 1)
    assert compare.verdict(parent[:3], faster[:3], "lower",
                           0.1)[0] == "worse"
    assert math.isclose(compare.spread([1, 2, 3, 4, 5]), (4.5 - 1.5) / 3)

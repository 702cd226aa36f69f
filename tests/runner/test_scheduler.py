"""Scheduler determinism and caching semantics, on real experiments.

Uses the two cheapest registry entries (``tab04`` and ``fig08`` quick
grids) so these tests exercise the real worker path end to end without
taking benchmark-scale time.
"""

import os

import pytest

from repro.obs import MetricsRegistry
from repro.runner import (
    BenchFailedError,
    BenchSummary,
    ResultCache,
    RunFailure,
    derive_seed,
    execute,
    get_experiment,
    plan_runs,
    run_benchmarks,
)
from repro.runner import scheduler
from repro.runner.scheduler import _execute_payload
from repro.runner.schema import ExperimentSpec, GridPoint

CHEAP = ("tab04", "fig08")


def _specs():
    return [get_experiment(name) for name in CHEAP]


def _broken_fig08():
    """A fig08 spec whose first grid point carries empty params.

    Workers re-resolve the run hook from the registry by name, so the
    real ``bench_run`` executes — and crashes on ``params["trials"]`` —
    exercising the genuine failure path on both inline and pool workers.
    """
    real = get_experiment("fig08")
    good_label, good_params = real.points(quick=True)[0]
    return ExperimentSpec(
        name=real.name, artifact=real.artifact, slug=real.slug,
        title=real.title, module=real.module,
        grid=(GridPoint("broken", {}, {}),
              GridPoint(good_label, good_params, good_params)),
        run=real.run, report=real.report)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed("fig09", "dram_point") == derive_seed("fig09",
                                                             "dram_point")
    assert derive_seed("fig09", "dram_point") != derive_seed("fig09",
                                                             "size_2e03")
    assert derive_seed("a", "b") != derive_seed("b", "a")


def test_plan_runs_expands_active_grid_points():
    spec = get_experiment("fig09")
    full = plan_runs([spec], quick=False)
    quick = plan_runs([spec], quick=True)
    assert len(full) == len(spec.points(quick=False))
    assert len(quick) < len(full)
    assert all(run.seed == derive_seed(run.experiment, run.label)
               for run in full)


def test_parallel_matches_serial_exactly(tmp_path):
    serial = execute(_specs(), jobs=1, quick=True, cache=None,
                     use_cache=False)
    parallel = execute(_specs(), jobs=4, quick=True, cache=None,
                       use_cache=False)
    assert [r.text for r in serial.reports] \
        == [r.text for r in parallel.reports]
    assert [r.run_id for r in serial.results] \
        == [r.run_id for r in parallel.results]


def test_cache_second_run_hits_everything(tmp_path):
    cache = ResultCache(tmp_path)
    cold = execute(_specs(), jobs=1, quick=True, cache=cache)
    assert cold.cache_hits == 0
    assert cold.cache_misses == len(cold.results)

    warm = execute(_specs(), jobs=1, quick=True, cache=cache)
    assert warm.cache_hits == len(warm.results)
    assert warm.cache_misses == 0
    assert [r.text for r in warm.reports] \
        == [r.text for r in cold.reports]


def test_no_cache_recomputes_but_still_stores(tmp_path):
    cache = ResultCache(tmp_path)
    first = execute(_specs(), jobs=1, quick=True, cache=cache,
                    use_cache=False)
    assert first.cache_hits == 0
    # use_cache=False stored fresh results, so a cached run now hits.
    second = execute(_specs(), jobs=1, quick=True, cache=cache)
    assert second.cache_hits == len(second.results)


def test_runner_metrics_are_published(tmp_path):
    metrics = MetricsRegistry()
    summary = execute(_specs(), jobs=1, quick=True,
                      cache=ResultCache(tmp_path), metrics=metrics)
    snapshot = summary.metrics
    assert snapshot["runner.runs.total"] == len(summary.results)
    assert snapshot["runner.cache.misses"] == len(summary.results)
    assert snapshot["runner.jobs"] == 1
    assert snapshot["runner.run.wall_seconds"]["count"] \
        == len(summary.results)


def test_run_benchmarks_only_filter(tmp_path):
    summary = run_benchmarks(["tab04"], jobs=1, quick=True,
                             cache_dir=tmp_path)
    assert [report.name for report in summary.reports] == ["tab04"]
    footer = summary.render_footer()
    assert footer.startswith("bench summary: 1 runs")


def test_summary_json_is_self_describing(tmp_path):
    summary = run_benchmarks(["tab04"], jobs=1, quick=True,
                             cache_dir=tmp_path)
    payload = summary.to_json_dict()
    assert payload["cache"]["dir"] == str(tmp_path)
    assert payload["reports"]["tab04"]["sha256"]
    assert payload["runs"][0]["cache_hit"] is False
    assert payload["failures"] == []
    assert summary.ok


# -- crash containment -----------------------------------------------------
def test_inline_crash_becomes_failure_record_not_abort():
    summary = execute([_broken_fig08(), get_experiment("tab04")],
                      jobs=1, quick=True, cache=None, use_cache=False)
    assert not summary.ok
    assert len(summary.failures) == 1
    failure = summary.failures[0]
    assert failure.run_id == "fig08/broken"
    assert failure.error_type == "KeyError"
    assert failure.worker == "inline"
    assert "bench_run" in failure.traceback
    # The surviving grid point and the other experiment both completed.
    assert {r.run_id for r in summary.results} >= {"tab04/default"}
    assert summary.metrics["runner.runs.failed"] == 1


def test_pool_crash_keeps_remaining_runs_alive():
    summary = execute([_broken_fig08(), get_experiment("tab04")],
                      jobs=2, quick=True, cache=None, use_cache=False)
    assert len(summary.failures) == 1
    failure = summary.failures[0]
    assert failure.run_id == "fig08/broken"
    assert failure.worker == "supervised-2"
    assert "KeyError" in failure.render()
    assert any(r.experiment == "tab04" for r in summary.results)


#: The grid point whose worker process dies in the containment test.
CRASH_VICTIM = "fig09/size_2e03"


def _exit_in_victim(experiment, label, params, seed):
    """``_execute_payload`` whose worker dies without reporting (as a
    segfault or OOM kill would) on :data:`CRASH_VICTIM` only."""
    if f"{experiment}/{label}" == CRASH_VICTIM:
        os._exit(1)
    return _execute_payload(experiment, label, params, seed)


def test_dead_worker_fails_only_its_own_run(monkeypatch):
    monkeypatch.setattr(scheduler, "_execute_payload", _exit_in_victim)
    specs = [get_experiment(name)
             for name in ("fig09", "tab04", "fig08", "sec34")]
    planned = {run.run_id for run in plan_runs(specs, quick=True)}
    summary = execute(specs, jobs=2, quick=True, cache=None,
                      use_cache=False)
    assert [failure.run_id for failure in summary.failures] \
        == [CRASH_VICTIM]
    failure = summary.failures[0]
    assert failure.failure_kind == "crash"
    assert failure.error_type == "WorkerCrashedError"
    assert failure.worker == "supervised-2"
    # Every other run finished on the same pool.
    assert {result.run_id for result in summary.results} \
        == planned - {CRASH_VICTIM}


def test_failed_spec_report_shows_failure_not_partial_payloads():
    summary = execute([_broken_fig08()], jobs=1, quick=True,
                      cache=None, use_cache=False)
    fig08_report = summary.reports[0]
    assert "1 run(s) failed" in fig08_report.text
    assert "FAILED fig08/broken" in fig08_report.text
    assert "FAILED" in summary.render_footer()
    payload = summary.to_json_dict()
    assert payload["failures"][0]["error_type"] == "KeyError"
    assert payload["failures"][0]["traceback"]


def test_bench_failed_error_carries_records():
    failures = [RunFailure(experiment="x", label="p0",
                           error_type="ValueError", message="boom",
                           traceback="tb")]
    with pytest.raises(BenchFailedError) as excinfo:
        raise BenchFailedError(failures)
    assert excinfo.value.failures == failures
    assert "FAILED x/p0" in str(excinfo.value)


def test_cli_bench_exits_nonzero_on_failures(monkeypatch, capsys):
    import repro.__main__ as cli

    summary = BenchSummary(
        reports=[], results=[], jobs=1, quick=True, wall_s=0.0,
        cache_hits=0, cache_misses=0, cache_dir=None, fingerprint=None,
        failures=[RunFailure(experiment="x", label="p0",
                             error_type="ValueError", message="boom",
                             traceback="tb")])
    monkeypatch.setattr(cli, "run_benchmarks",
                        lambda *args, **kwargs: summary)
    assert cli.main(["bench", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert "FAILED x/p0" in captured.err
    assert "1 FAILED" in captured.out

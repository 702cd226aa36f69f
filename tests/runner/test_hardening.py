"""Campaign hardening at the ``execute()`` level: timeouts, resume, SIGINT.

These tests drive the scheduler's public entry points with a fake
experiment injected into the registry (children are forked and inherit
it), proving the end-to-end contracts the CI interrupt/resume job relies
on: hung workers become failure records while siblings survive,
journaled runs never re-execute under ``--resume``, and SIGINT drains
instead of aborting.
"""

import json
import os
import pathlib
import signal
import time

from repro.runner import (
    BenchSummary,
    ResultCache,
    RunFailure,
    execute,
    registry,
    run_benchmarks,
)
from repro.runner.journal import RunJournal
from repro.runner.pool import RunTimeoutError
from repro.runner.scheduler import derive_seed
from repro.runner.schema import ExperimentSpec, GridPoint, RunSpec

FAKE_NAME = "hardeningtest"


def _fake_run(label, params, seed):
    if "kill_rate" in params:
        return _cluster_chaos_run(label, params, seed)
    if "peer_journal" in params:
        return _await_peer(params)
    if "log" in params:
        with open(params["log"], "a", encoding="utf-8") as handle:
            handle.write(f"{label}\n")
    if params.get("hang"):
        time.sleep(30.0)
    if params.get("interrupt"):
        # Deterministic stand-in for the operator's Ctrl-C: deliver a
        # real SIGINT to ourselves mid-run; the scheduler's handler must
        # drain (finish this run, start no more), not abort.
        os.kill(os.getpid(), signal.SIGINT)
    return f"payload:{label}"


def _journaled_ok(path, run_id):
    for line in path.read_text().splitlines() if path.exists() else ():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # a line still being written
        if record.get("run_id") == run_id and record.get("status") == "ok":
            return True
    return False


def _await_peer(params):
    """Poll, for up to 10 s, until the peer run is journaled ``ok`` and
    its cache entry exists; report which of the two were seen."""
    journal = pathlib.Path(params["peer_journal"])
    entry = pathlib.Path(params["peer_cache"])
    deadline = time.monotonic() + 10.0
    while True:
        journaled = _journaled_ok(journal, params["peer"])
        if (journaled and entry.exists()) or time.monotonic() > deadline:
            return {"journaled": journaled, "cached": entry.exists()}
        time.sleep(0.01)


def _fake_report(payloads):
    return "\n".join(f"{label}: {value}" for label, value in payloads.items())


def _install_fake(monkeypatch, labels_params):
    registry.discover()
    spec = ExperimentSpec(
        name=FAKE_NAME, artifact="test", slug=FAKE_NAME,
        title="hardening test", module=__name__,
        grid=tuple(GridPoint(label, params, params)
                   for label, params in labels_params),
        run=_fake_run, report=_fake_report)
    monkeypatch.setitem(registry._cache, FAKE_NAME, spec)
    return spec


def _log_lines(path):
    return path.read_text().splitlines() if path.exists() else []


def test_supervised_timeout_is_a_failure_not_an_abort(monkeypatch):
    spec = _install_fake(monkeypatch, [("hang", {"hang": True}),
                                       ("quick", {})])
    summary = execute([spec], jobs=2, cache=None, use_cache=False,
                      timeout_s=1.0)
    assert not summary.ok
    assert len(summary.failures) == 1
    failure = summary.failures[0]
    assert failure.run_id == f"{FAKE_NAME}/hang"
    assert failure.error_type == RunTimeoutError.__name__
    assert failure.worker == "supervised-2"
    # The sibling run on the same pool completed normally.
    survivors = {result.run_id for result in summary.results}
    assert f"{FAKE_NAME}/quick" in survivors
    assert summary.metrics["runner.runs.failed"] == 1


def test_supervised_runs_are_journaled_and_cached_as_they_finish(
        monkeypatch, tmp_path):
    """A run the pool finishes is cached and journaled while its sibling
    is still executing, so a supervisor killed mid-campaign keeps it."""
    cache = ResultCache(tmp_path / "cache")
    journal_path = tmp_path / "campaign.jsonl"
    fast = RunSpec(experiment=FAKE_NAME, label="fast", params={},
                   seed=derive_seed(FAKE_NAME, "fast"))
    spec = _install_fake(monkeypatch, [
        ("fast", {}),
        ("slow", {"peer": fast.run_id, "peer_journal": str(journal_path),
                  "peer_cache": str(cache.path_for(fast))})])

    with RunJournal(journal_path).open_for(cache.fingerprint) as journal:
        summary = execute([spec], jobs=2, cache=cache, use_cache=False,
                          journal=journal)
    assert summary.ok
    payloads = {result.label: result.payload for result in summary.results}
    # The slow run saw its finished sibling on disk before it returned.
    assert payloads["slow"] == {"journaled": True, "cached": True}


def test_resume_serves_journaled_runs_without_reexecution(monkeypatch,
                                                          tmp_path):
    log = tmp_path / "executions.log"
    spec = _install_fake(monkeypatch, [("p1", {"log": str(log)}),
                                       ("p2", {"log": str(log)})])
    cache = ResultCache(tmp_path / "cache")
    journal_path = tmp_path / "campaign.jsonl"

    with RunJournal(journal_path).open_for(cache.fingerprint) as journal:
        first = execute([spec], jobs=1, cache=cache, journal=journal)
    assert first.ok
    assert sorted(_log_lines(log)) == ["p1", "p2"]

    # Resume with the cache *bypassed* (use_cache=False would normally
    # force recomputation): the journal alone authorises the skip, and
    # the payload replays from the cache — zero re-executions.
    with RunJournal(journal_path).open_for(cache.fingerprint) as journal:
        resumed = execute([spec], jobs=1, cache=cache, use_cache=False,
                          journal=journal, resume=True)
    assert resumed.ok
    assert sorted(_log_lines(log)) == ["p1", "p2"]  # unchanged
    assert all(result.worker == "resume" for result in resumed.results)
    assert resumed.cache_hits == 2
    assert resumed.cache_misses == 0


def test_stale_journal_does_not_authorise_skips(monkeypatch, tmp_path):
    """A journal written under different code (fingerprint mismatch)
    restarts empty, so resume re-runs everything."""
    log = tmp_path / "executions.log"
    spec = _install_fake(monkeypatch, [("p1", {"log": str(log)})])
    cache = ResultCache(tmp_path / "cache")
    journal_path = tmp_path / "campaign.jsonl"

    with RunJournal(journal_path).open_for("stale-fingerprint") as journal:
        journal.record_ok(f"{FAKE_NAME}/p1", "bogus-key", 1.0, "w")

    with RunJournal(journal_path).open_for(cache.fingerprint) as journal:
        assert journal.stale
        summary = execute([spec], jobs=1, cache=cache, use_cache=False,
                          journal=journal, resume=True)
    assert _log_lines(log) == ["p1"]
    assert all(not result.cache_hit for result in summary.results)


def test_sigint_drains_then_resume_finishes_the_rest(monkeypatch, tmp_path):
    log = tmp_path / "executions.log"
    grid = [("p1", {"log": str(log), "interrupt": True}),
            ("p2", {"log": str(log)}),
            ("p3", {"log": str(log)})]
    spec = _install_fake(monkeypatch, grid)
    cache = ResultCache(tmp_path / "cache")
    journal_path = tmp_path / "campaign.jsonl"

    with RunJournal(journal_path).open_for(cache.fingerprint) as journal:
        interrupted = execute([spec], jobs=1, cache=cache, journal=journal)
    assert interrupted.interrupted
    assert not interrupted.ok
    # The interrupting run itself completed (drain, not abort) and was
    # journaled; the rest never started.
    assert _log_lines(log) == ["p1"]
    assert [result.run_id for result in interrupted.results] \
        == [f"{FAKE_NAME}/p1"]
    assert "INTERRUPTED" in interrupted.render_footer()
    assert "re-run with --resume" in interrupted.reports[0].text

    with RunJournal(journal_path).open_for(cache.fingerprint) as journal:
        resumed = execute([spec], jobs=1, cache=cache, journal=journal,
                          resume=True)
    assert resumed.ok and not resumed.interrupted
    # p1 replayed from journal+cache; only p2/p3 actually executed.
    assert _log_lines(log) == ["p1", "p2", "p3"]
    assert len(resumed.results) == 3


def _cluster_chaos_run(label, params, seed):
    """A real chaos cluster run (kills + failover) as one campaign work
    unit; optionally interrupts the campaign after finishing, like an
    operator's Ctrl-C landing mid-sweep."""
    from repro.cluster import ClusterConfig, run_cluster
    from repro.faults import ShardFaultPlan

    plan = ShardFaultPlan(params["kill_rate"], seed=11)
    result = run_cluster(ClusterConfig(
        shards=3, flows=32, lookups=96, seed=seed,
        failover=True, detection_cycles=2048.0,
        shard_faults=plan))
    if "log" in params:
        with open(params["log"], "a", encoding="utf-8") as handle:
            handle.write(f"{label}:{len(result.failed_shards)}:"
                         f"{result.lost_flows}\n")
    if params.get("interrupt"):
        os.kill(os.getpid(), signal.SIGINT)
    return {"failed": result.failed_shards, "lost": result.lost_flows}


def test_sigint_during_cluster_chaos_drains_and_resumes(monkeypatch,
                                                        tmp_path):
    """Satellite contract: Ctrl-C landing while a chaos cluster run is in
    flight finishes that run (failover and all), journals it, and a
    ``--resume`` completes the rest with zero re-execution of the
    finished point."""
    log = tmp_path / "executions.log"
    grid = [("c1", {"log": str(log), "kill_rate": 0.4, "interrupt": True}),
            ("c2", {"log": str(log), "kill_rate": 0.0})]
    spec = _install_fake(monkeypatch, grid)
    cache = ResultCache(tmp_path / "cache")
    journal_path = tmp_path / "campaign.jsonl"

    with RunJournal(journal_path).open_for(cache.fingerprint) as journal:
        interrupted = execute([spec], jobs=1, cache=cache, journal=journal)
    assert interrupted.interrupted
    # The in-flight chaos run drained to completion: shards died, flows
    # were recovered, the payload was journaled.
    assert _log_lines(log) == ["c1:2:0"]
    assert interrupted.results[0].payload == {"failed": [1, 2], "lost": 0}

    with RunJournal(journal_path).open_for(cache.fingerprint) as journal:
        resumed = execute([spec], jobs=1, cache=cache, journal=journal,
                          resume=True)
    assert resumed.ok and not resumed.interrupted
    assert _log_lines(log) == ["c1:2:0", "c2:0:0"]  # c1 never re-ran
    by_label = {r.run_id: r for r in resumed.results}
    # c1 replayed without executing (journal/cache, not a worker).
    assert by_label[f"{FAKE_NAME}/c1"].worker in ("resume", "cache")
    assert by_label[f"{FAKE_NAME}/c1"].payload == {"failed": [1, 2],
                                                  "lost": 0}


def test_run_benchmarks_resume_keeps_a_journal_under_cache_root(tmp_path):
    first = run_benchmarks(["tab04"], jobs=1, quick=True,
                           cache_dir=tmp_path, resume=True)
    assert first.ok
    journals = list((tmp_path / "journals").glob("*.jsonl"))
    assert len(journals) == 1
    assert '"kind": "run"' in journals[0].read_text()

    second = run_benchmarks(["tab04"], jobs=1, quick=True,
                            cache_dir=tmp_path, resume=True)
    assert second.cache_hits == len(second.results)
    assert list((tmp_path / "journals").glob("*.jsonl")) == journals


def test_cli_bench_exits_130_when_interrupted(monkeypatch, capsys):
    import repro.__main__ as cli

    summary = BenchSummary(
        reports=[], results=[], jobs=1, quick=True, wall_s=0.0,
        cache_hits=1, cache_misses=0, cache_dir=None, fingerprint=None,
        interrupted=True)
    monkeypatch.setattr(cli, "run_benchmarks",
                        lambda *args, **kwargs: summary)
    assert cli.main(["bench", "--jobs", "1"]) == 130
    captured = capsys.readouterr()
    assert "--resume" in captured.err
    assert "INTERRUPTED" in captured.out

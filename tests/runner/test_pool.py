"""Supervised pool semantics: deadlines, retries, crash detection, drain.

The hooks live at module level and the fake experiment is injected into
the registry cache before workers launch; children are forked, so they
inherit the injection and ``_execute_payload`` resolves it by name.
"""

import multiprocessing
import os
import pathlib
import time
from multiprocessing.connection import Connection

import pytest

from repro.runner import registry
from repro.runner.pool import (
    PoolOutcome,
    RunTimeoutError,
    WorkerCrashedError,
    run_supervised,
)
from repro.runner.scheduler import plan_runs
from repro.runner.schema import ExperimentSpec, GridPoint, RunSpec

FAKE_NAME = "pooltest"


def _fake_run(label, params, seed):
    """One dispatchable behaviour per label, steered by ``params``."""
    if label.startswith("hang"):
        time.sleep(float(params.get("sleep_s", 30.0)))
        return "woke up"
    if label == "crash":
        os._exit(3)
    if label == "raise":
        raise ValueError("boom from the child")
    if label == "stall":
        from repro.guard import StallError
        raise StallError(blocked=(), now=512.0, stalled_events=4096)
    if label == "flaky":
        marker = pathlib.Path(params["marker"])
        if not marker.exists():
            marker.write_text("attempt 1 failed here")
            raise RuntimeError("transient failure, succeeds on retry")
        return "recovered"
    if "log" in params:
        with open(params["log"], "a", encoding="utf-8") as handle:
            handle.write(f"{label}\n")
    return f"payload:{label}"


def _fake_report(payloads):
    return "\n".join(f"{label}: {value}" for label, value in payloads.items())


def _install_fake(monkeypatch, labels_params):
    """Register a fake experiment under ``FAKE_NAME`` for this test."""
    registry.discover()  # fill the cache so injection survives get_experiment
    spec = ExperimentSpec(
        name=FAKE_NAME, artifact="test", slug=FAKE_NAME, title="pool test",
        module=__name__,
        grid=tuple(GridPoint(label, params, params)
                   for label, params in labels_params),
        run=_fake_run, report=_fake_report)
    monkeypatch.setitem(registry._cache, FAKE_NAME, spec)
    return spec


def _runs(labels_params):
    return [RunSpec(experiment=FAKE_NAME, label=label, params=params, seed=0)
            for label, params in labels_params]


def test_timeout_kills_hung_worker_sibling_survives(monkeypatch):
    grid = [("hang", {"sleep_s": 30.0}), ("quick", {})]
    _install_fake(monkeypatch, grid)
    outcomes, skipped = run_supervised(_runs(grid), jobs=2, timeout_s=1.0)
    assert skipped == []
    by_label = {outcome.spec.label: outcome for outcome in outcomes}
    hung = by_label["hang"]
    assert not hung.ok
    assert hung.error_type == RunTimeoutError.__name__
    assert "wall-clock budget" in hung.message
    assert by_label["quick"].ok
    assert by_label["quick"].payload == "payload:quick"


def test_retry_recovers_transient_failure(monkeypatch, tmp_path):
    grid = [("flaky", {"marker": str(tmp_path / "flaky.marker")})]
    _install_fake(monkeypatch, grid)
    outcomes, _ = run_supervised(_runs(grid), jobs=1, retries=1,
                                 backoff_s=0.01)
    assert len(outcomes) == 1
    outcome = outcomes[0]
    assert outcome.ok
    assert outcome.attempts == 2
    assert outcome.payload == "recovered"


def test_retries_exhausted_reports_final_failure(monkeypatch):
    grid = [("raise", {})]
    _install_fake(monkeypatch, grid)
    outcomes, _ = run_supervised(_runs(grid), jobs=1, retries=2,
                                 backoff_s=0.01)
    outcome = outcomes[0]
    assert not outcome.ok
    assert outcome.attempts == 3
    assert outcome.error_type == "ValueError"
    assert outcome.message == "boom from the child"
    assert "ValueError" in outcome.traceback


def test_worker_crash_is_distinguished_from_exception(monkeypatch):
    grid = [("crash", {})]
    _install_fake(monkeypatch, grid)
    outcomes, _ = run_supervised(_runs(grid), jobs=1)
    outcome = outcomes[0]
    assert not outcome.ok
    assert outcome.error_type == WorkerCrashedError.__name__
    assert "exited with code 3" in outcome.message


def test_on_outcome_reports_each_run_as_it_concludes(monkeypatch,
                                                     tmp_path):
    """Each final outcome reaches ``on_outcome`` once, when its run ends
    rather than when the pool returns; a retried attempt is not one."""
    grid = [("flaky", {"marker": str(tmp_path / "flaky.marker")}),
            ("hang", {"sleep_s": 1.0})]
    _install_fake(monkeypatch, grid)
    seen = []
    outcomes, _ = run_supervised(
        _runs(grid), jobs=2, retries=1, backoff_s=0.01,
        on_outcome=lambda outcome: seen.append((outcome, time.monotonic())))
    returned = time.monotonic()
    assert [outcome for outcome, _at in seen] == outcomes
    assert [outcome.spec.label for outcome in outcomes] == ["flaky", "hang"]
    assert outcomes[0].ok and outcomes[0].attempts == 2
    # Reported while its sibling still had most of a second to sleep.
    assert returned - seen[0][1] > 0.5


def test_should_stop_drains_in_flight_and_returns_queue(monkeypatch,
                                                        tmp_path):
    """SIGINT drain contract: once the stop flag flips, in-flight runs
    finish but nothing new dispatches; the untouched tail comes back."""
    log = tmp_path / "ran.log"
    grid = [("first", {"log": str(log)}),
            ("second", {"log": str(log)}),
            ("third", {"log": str(log)})]
    _install_fake(monkeypatch, grid)
    outcomes, skipped = run_supervised(
        _runs(grid), jobs=1, should_stop=log.exists)
    assert [outcome.spec.label for outcome in outcomes] == ["first"]
    assert outcomes[0].ok
    assert [spec.label for spec in skipped] == ["second", "third"]
    assert log.read_text().splitlines() == ["first"]


def test_outcomes_carry_wall_time(monkeypatch):
    grid = [("quick", {})]
    _install_fake(monkeypatch, grid)
    outcomes, _ = run_supervised(_runs(grid), jobs=1)
    assert isinstance(outcomes[0], PoolOutcome)
    assert outcomes[0].wall_s >= 0.0


def test_timeout_then_retry_gets_a_fresh_budget(monkeypatch, tmp_path):
    """A run killed at its deadline retries from scratch; a retry that
    behaves (sleeps under budget) completes."""
    marker = tmp_path / "slow.marker"
    grid = [("flaky", {"marker": str(marker)})]
    _install_fake(monkeypatch, grid)
    outcomes, _ = run_supervised(_runs(grid), jobs=1, timeout_s=5.0,
                                 retries=1, backoff_s=0.01)
    assert outcomes[0].ok
    assert outcomes[0].attempts == 2


# ---------------------------------------------------------------------------
# failure classification


@pytest.mark.parametrize("error_type,kind", [
    ("RunTimeoutError", "timeout"),
    ("WorkerCrashedError", "crash"),
    ("StallError", "livelock"),
    ("ValueError", "error"),
    ("RuntimeError", "error"),
])
def test_classify_failure_mapping(error_type, kind):
    from repro.runner.pool import classify_failure
    assert classify_failure(error_type) == kind


def test_livelock_is_not_conflated_with_timeout(monkeypatch):
    """A guard-detected stall (events firing, no progress) and a
    supervisor deadline kill are different diseases; the outcome says
    which one struck."""
    grid = [("stall", {})]
    _install_fake(monkeypatch, grid)
    outcomes, _ = run_supervised(_runs(grid), jobs=1, timeout_s=30.0)
    outcome = outcomes[0]
    assert not outcome.ok
    assert outcome.error_type == "StallError"
    assert outcome.failure_kind == "livelock"


def test_timeout_and_crash_failure_kinds(monkeypatch):
    grid = [("hang", {"sleep_s": 30.0}), ("crash", {})]
    _install_fake(monkeypatch, grid)
    outcomes, _ = run_supervised(_runs(grid), jobs=2, timeout_s=1.0)
    kinds = {o.spec.label: o.failure_kind for o in outcomes}
    assert kinds == {"hang": "timeout", "crash": "crash"}


def test_successful_outcome_has_empty_failure_kind(monkeypatch):
    grid = [("quick", {})]
    _install_fake(monkeypatch, grid)
    outcomes, _ = run_supervised(_runs(grid), jobs=1)
    assert outcomes[0].ok
    assert outcomes[0].failure_kind == ""


def test_exhausted_retries_list_every_attempt(monkeypatch):
    grid = [("raise", {})]
    _install_fake(monkeypatch, grid)
    outcomes, _ = run_supervised(_runs(grid), jobs=1, retries=2,
                                 backoff_s=0.01)
    outcome = outcomes[0]
    assert not outcome.ok
    assert outcome.failure_kind == "error"
    assert outcome.attempts == 3


def test_report_sent_just_before_exit_is_not_a_crash(monkeypatch):
    """A child that reports and exits between the supervisor's look at its
    pipe and its liveness test finished its run: the report is still in
    the pipe, so the run is ok on its first attempt, not a crash."""
    looked = []
    poll = Connection.poll

    def first_look_misses(conn, *args, **kwargs):
        if not any(conn is seen for seen in looked):
            looked.append(conn)
            return False
        return poll(conn, *args, **kwargs)

    def exited(process):
        process.join(timeout=60)
        assert process.exitcode is not None, "the worker never exited"
        return False

    monkeypatch.setattr(Connection, "poll", first_look_misses)
    monkeypatch.setattr(multiprocessing.Process, "is_alive", exited)
    runs = plan_runs([registry.get_experiment("tab04")], quick=True)
    outcomes, skipped = run_supervised(runs, jobs=1)
    assert skipped == []
    outcome, = outcomes
    assert outcome.ok, f"{outcome.error_type}: {outcome.message}"
    assert outcome.attempts == 1
    assert outcome.payload is not None

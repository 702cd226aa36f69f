"""Supervised worker pool: one killable process per run, with deadlines.

This is the only code in ``repro`` that starts a process.  The scheduler
sends every campaign here except a ``--jobs 1`` run with no
``--timeout``/``--retries``, which runs inline.  The pool spawns a fresh
``multiprocessing.Process`` per run, so a worker that dies loses only
its own run, and a run that blows its wall-clock budget can be *killed*
(``terminate``) without poisoning any shared worker state, then retried
a bounded number of times with backoff.  A shared-worker executor can
do neither: one dead worker breaks every queued and running task, and a
started task cannot be cancelled.

Results travel back over a per-run ``Pipe``.  The supervisor waits on
the pipes and the children's sentinels, so it wakes as soon as a run
reports or dies, and hands each concluded outcome to the caller's
``on_outcome`` at once: the scheduler caches and journals a run there,
while its siblings are still executing.  A child that dies without
reporting (segfault, OOM kill, ``terminate``) is distinguished from one
that raised: the former becomes a retryable :class:`WorkerCrashedError`
or :class:`RunTimeoutError`, the latter carries the child's own
exception type, message, and traceback.

Children ignore ``SIGINT``: graceful shutdown is the *supervisor's* job
(stop dispatching, drain in-flight runs), so a terminal Ctrl-C must not
also rip the workers out from under it mid-drain.

Failure *classification* is part of the contract: every failed outcome
carries a ``failure_kind`` — ``"crash"`` (the process died without
reporting), ``"timeout"`` (the supervisor killed it at the deadline),
``"livelock"`` (the child's own guard raised a
:class:`~repro.guard.errors.StallError`), or ``"error"`` (any other
child exception) — so the scheduler and the journal record *how* a run
died, not just that it did.

Public contract: :func:`run_supervised` (its signature and the
timeout/retry semantics above), :class:`PoolOutcome` (including
``failure_kind``), :func:`classify_failure`, the ``FAILURE_*`` kind
constants, and the exception types :class:`RunTimeoutError` /
:class:`WorkerCrashedError` are stable API — the scheduler and external
harnesses may rely on them.  The worker internals, pipe protocol, and
backoff arithmetic are implementation detail and may change without
notice.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback as traceback_module
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .schema import RunSpec

#: Longest the supervisor waits between passes over its children; a
#: child that reports or exits wakes it at once.
POLL_INTERVAL_S = 0.02

#: Grace period for ``join`` after ``terminate`` before escalating.
TERMINATE_GRACE_S = 2.0


class RunTimeoutError(RuntimeError):
    """A run exceeded its wall-clock budget and was killed."""


class WorkerCrashedError(RuntimeError):
    """A worker process died without reporting a result."""


#: Failure kinds :func:`classify_failure` maps error types onto.
FAILURE_CRASH = "crash"
FAILURE_TIMEOUT = "timeout"
FAILURE_LIVELOCK = "livelock"
FAILURE_ERROR = "error"

#: Exception type names the guard raises on no-progress livelock; a child
#: that dies this way hung *productively* (events kept firing) and must
#: not be conflated with a wall-clock timeout in journals or health maps.
_LIVELOCK_ERROR_TYPES = frozenset({"StallError"})


def classify_failure(error_type: str) -> str:
    """Map a failed run's exception type name onto a failure kind.

    ``RunTimeoutError`` → ``"timeout"`` (supervisor deadline kill),
    ``WorkerCrashedError`` → ``"crash"`` (died without reporting),
    guard ``StallError`` → ``"livelock"`` (the watchdog caught events
    firing without progress), anything else → ``"error"``.
    """
    if error_type == RunTimeoutError.__name__:
        return FAILURE_TIMEOUT
    if error_type == WorkerCrashedError.__name__:
        return FAILURE_CRASH
    if error_type in _LIVELOCK_ERROR_TYPES:
        return FAILURE_LIVELOCK
    return FAILURE_ERROR


@dataclass
class PoolOutcome:
    """What the supervisor concluded about one run.

    Failures carry the *child's* exception identity (type name, message,
    traceback text) rather than a rebuilt exception object — the original
    never crosses the process boundary, and the failure record only needs
    the strings anyway.  ``failure_kind`` classifies the *final* failure
    (empty for successes)."""

    spec: RunSpec
    ok: bool
    payload: Any = None
    wall_s: float = 0.0
    attempts: int = 1
    error_type: str = ""
    message: str = ""
    traceback: str = ""
    failure_kind: str = ""


def _child_main(conn, experiment: str, label: str,
                params: Dict[str, Any], seed: int) -> None:
    """Entry point of one worker process: run the grid point, report."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        # Local import: the scheduler imports this module, and the child
        # resolves the hook from the registry by name.
        from .scheduler import _execute_payload
        payload, wall = _execute_payload(experiment, label, params, seed)
        conn.send(("ok", payload, wall))
    except BaseException as exc:  # noqa: BLE001 - report, never swallow
        conn.send(("error", type(exc).__name__, str(exc),
                   "".join(traceback_module.format_exception(
                       type(exc), exc, exc.__traceback__))))
    finally:
        conn.close()


@dataclass
class _Active:
    """Supervisor-side state for one live worker."""

    spec: RunSpec
    process: multiprocessing.Process
    conn: Any
    deadline: Optional[float]
    attempt: int
    started: float


def run_supervised(pending: Sequence[RunSpec], *, jobs: int,
                   timeout_s: Optional[float] = None,
                   retries: int = 0,
                   backoff_s: float = 0.5,
                   should_stop: Callable[[], bool] = lambda: False,
                   on_outcome: Optional[Callable[[PoolOutcome], None]] = None,
                   ) -> Tuple[List[PoolOutcome], List[RunSpec]]:
    """Run ``pending`` under supervision; returns ``(outcomes, skipped)``.

    ``skipped`` is the tail of runs never dispatched because
    ``should_stop`` flipped (SIGINT drain): in-flight runs are allowed to
    finish (their timeouts still enforced), queued ones are returned
    untouched so the journal/caller can account for them.

    ``on_outcome`` is called with each outcome the moment its run
    concludes, while other runs may still be executing, so a caller can
    cache and journal it before a later crash of the supervisor itself
    loses it; the returned ``outcomes`` list holds the same objects.
    """
    queue: List[Tuple[RunSpec, int, float]] = [
        (spec, 1, 0.0) for spec in pending]  # (spec, attempt, not_before)
    active: List[_Active] = []
    outcomes: List[PoolOutcome] = []
    skipped: List[RunSpec] = []
    jobs = max(1, jobs)

    def _launch(spec: RunSpec, attempt: int) -> None:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_child_main,
            args=(child_conn, spec.experiment, spec.label, spec.params,
                  spec.seed),
            daemon=True)
        process.start()
        child_conn.close()
        now = time.monotonic()
        active.append(_Active(
            spec=spec, process=process, conn=parent_conn,
            deadline=(now + timeout_s) if timeout_s else None,
            attempt=attempt, started=now))

    def _conclude(entry: _Active, outcome: PoolOutcome) -> None:
        entry.conn.close()
        entry.process.join(timeout=TERMINATE_GRACE_S)
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)

    def _retry_or_fail(entry: _Active, error_type: str, message: str,
                       tb: str) -> None:
        if entry.attempt <= retries and not should_stop():
            delay = backoff_s * (2 ** (entry.attempt - 1))
            queue.insert(0, (entry.spec, entry.attempt + 1,
                             time.monotonic() + delay))
            entry.conn.close()
            entry.process.join(timeout=TERMINATE_GRACE_S)
            return
        _conclude(entry, PoolOutcome(
            spec=entry.spec, ok=False, attempts=entry.attempt,
            wall_s=time.monotonic() - entry.started,
            error_type=error_type, message=message, traceback=tb,
            failure_kind=classify_failure(error_type)))

    while queue or active:
        if should_stop():
            # Drain mode: dispatch nothing new; in-flight runs finish
            # (or time out) below.
            skipped.extend(spec for spec, _a, _nb in queue)
            queue.clear()

        now = time.monotonic()
        while queue and len(active) < jobs:
            # Dispatch in order, but respect retry backoff windows.
            index = next((i for i, (_s, _a, not_before) in enumerate(queue)
                          if not_before <= now), None)
            if index is None:
                break
            spec, attempt, _not_before = queue.pop(index)
            _launch(spec, attempt)

        progressed = False
        for entry in list(active):
            message = None
            if entry.conn.poll():
                try:
                    message = entry.conn.recv()
                except (EOFError, OSError):
                    message = None  # died between connect and send
            if message is not None:
                active.remove(entry)
                progressed = True
                if message[0] == "ok":
                    _, payload, wall = message
                    _conclude(entry, PoolOutcome(
                        spec=entry.spec, ok=True, payload=payload,
                        wall_s=wall, attempts=entry.attempt))
                else:
                    _, kind, text, tb = message
                    _retry_or_fail(entry, kind, text, tb)
                continue
            if not entry.process.is_alive():
                active.remove(entry)
                progressed = True
                _retry_or_fail(
                    entry, WorkerCrashedError.__name__,
                    f"worker for {entry.spec.run_id} exited with code "
                    f"{entry.process.exitcode} before reporting a result",
                    "")
                continue
            if entry.deadline is not None and now >= entry.deadline:
                entry.process.terminate()
                entry.process.join(timeout=TERMINATE_GRACE_S)
                if entry.process.is_alive():  # pragma: no cover - stuck in D
                    entry.process.kill()
                    entry.process.join(timeout=TERMINATE_GRACE_S)
                active.remove(entry)
                progressed = True
                _retry_or_fail(
                    entry, RunTimeoutError.__name__,
                    f"{entry.spec.run_id} exceeded {timeout_s:.1f}s "
                    f"wall-clock budget (attempt {entry.attempt}) "
                    f"and was killed",
                    "")

        if not progressed and (active or queue):
            # Sleep until a child reports or exits; wake anyway after the
            # poll interval to enforce deadlines, backoff and a drain.
            wait([entry.conn for entry in active]
                 + [entry.process.sentinel for entry in active],
                 timeout=POLL_INTERVAL_S)

    return outcomes, skipped

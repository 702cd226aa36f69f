"""The run scheduler: run grid points inline or supervised, replay cache.

Execution model (HALO §6 evaluates by parameter sweep; this is the sweep
engine):

1. :func:`plan_runs` expands the selected experiments into
   :class:`~repro.runner.schema.RunSpec` units — one per active grid
   point — each with a deterministic seed derived from
   ``sha256(experiment, label)`` so results never depend on worker
   count or completion order.
2. :func:`execute` answers what it can from the
   :class:`~repro.runner.cache.ResultCache`, then runs the misses —
   inline for ``jobs=1`` with no timeout or retries, otherwise on the
   supervised pool (:func:`~repro.runner.pool.run_supervised`), one
   forked process per run.  A child receives only ``(experiment,
   label, params, seed)`` and resolves the callable from the registry
   itself; only the payload crosses back, and a child that dies costs
   only its own run.
3. Per-experiment reports are rendered *in grid order* from the
   collected payloads, so the output text is identical whatever the
   interleaving was.

Runner metrics (``runner.cache.hits``, ``runner.cache.misses``,
``runner.run.wall_seconds``, ...) are published through a
:class:`repro.obs.MetricsRegistry` and included in the ``--json``
export.

Campaign hardening (the harness safety net, layer 2 — see
``docs/MODELING.md`` §9): per-run wall-clock budgets and bounded
retries on the same supervised pool, an incremental completion
journal (:mod:`repro.runner.journal`) behind
``--resume``, and SIGINT graceful drain that flushes partial results
before exiting nonzero.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import signal
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..obs import MetricsRegistry
from .cache import ResultCache
from .journal import RunJournal, default_journal_path
from .pool import PoolOutcome, classify_failure, run_supervised
from .registry import get_experiment, resolve_names
from .schema import ExperimentReport, ExperimentSpec, RunResult, RunSpec

#: Histogram bounds for per-run wall time, in seconds (the obs default
#: buckets are cycle-scaled; experiment runs live on 10ms–500s scales).
WALL_SECONDS_BUCKETS = tuple(0.01 * (2 ** exp) for exp in range(16))


def derive_seed(experiment: str, label: str) -> int:
    """Deterministic per-run seed: a pure function of the run identity.

    Uses SHA-256, not :func:`hash`, so the value is stable across
    processes and interpreter restarts (``PYTHONHASHSEED`` never leaks
    into results).  Experiments whose parameters already pin their seeds
    may ignore it; stochastic ones fold it in.
    """
    digest = hashlib.sha256(f"{experiment}\x00{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def plan_runs(specs: Sequence[ExperimentSpec], quick: bool = False,
              cache: Optional[ResultCache] = None) -> List[RunSpec]:
    """Expand experiments into runnable units, with cache keys attached."""
    runs: List[RunSpec] = []
    for spec in specs:
        for label, params in spec.points(quick):
            seed = derive_seed(spec.name, label)
            key = (cache.key(spec.name, label, params, seed)
                   if cache is not None else "")
            runs.append(RunSpec(experiment=spec.name, label=label,
                                params=params, seed=seed, cache_key=key))
    return runs


def _execute_payload(experiment: str, label: str, params: Dict[str, Any],
                     seed: int):
    """Worker entry point: resolve the hook in-process and run it."""
    spec = get_experiment(experiment)
    start = time.perf_counter()
    payload = spec.run(label, params, seed)
    return payload, time.perf_counter() - start


@dataclass
class RunFailure:
    """One grid point that crashed, as a structured record.

    A crashing experiment must not abort the whole bench invocation: the
    remaining runs finish, and the failure surfaces here — name, label,
    exception type, message, and the worker-side traceback — plus a
    nonzero CLI exit code.
    """

    experiment: str
    label: str
    error_type: str
    message: str
    traceback: str
    worker: str = "inline"
    #: Supervisor classification: crash / timeout / livelock / error.
    failure_kind: str = ""

    def __post_init__(self) -> None:
        if not self.failure_kind:
            self.failure_kind = classify_failure(self.error_type)

    @property
    def run_id(self) -> str:
        return f"{self.experiment}/{self.label}"

    @classmethod
    def from_exception(cls, spec_run: RunSpec, exc: BaseException,
                       worker: str) -> "RunFailure":
        return cls(
            experiment=spec_run.experiment,
            label=spec_run.label,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(traceback_module.format_exception(
                type(exc), exc, exc.__traceback__)),
            worker=worker,
        )

    def to_json_dict(self) -> Dict[str, str]:
        return {
            "experiment": self.experiment,
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "worker": self.worker,
            "failure_kind": self.failure_kind,
        }

    def render(self) -> str:
        return (f"FAILED {self.run_id} ({self.worker}): "
                f"{self.error_type}: {self.message}")


class BenchFailedError(RuntimeError):
    """Raised by strict callers when a bench invocation had failed runs."""

    def __init__(self, failures: Sequence[RunFailure]) -> None:
        self.failures = list(failures)
        super().__init__("; ".join(f.render() for f in self.failures))


@dataclass
class BenchSummary:
    """Everything one ``repro bench`` invocation produced."""

    reports: List[ExperimentReport]
    results: List[RunResult]
    jobs: int
    quick: bool
    wall_s: float
    cache_hits: int
    cache_misses: int
    cache_dir: Optional[str]
    fingerprint: Optional[str]
    metrics: Dict[str, object] = field(default_factory=dict)
    failures: List[RunFailure] = field(default_factory=list)
    #: True when SIGINT cut the campaign short: in-flight runs were
    #: drained and journaled, queued ones never started.
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted

    @property
    def run_seconds(self) -> float:
        """Sum of per-run times (≥ wall time once runs parallelise)."""
        return sum(result.wall_s for result in self.results)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "quick": self.quick,
            "interrupted": self.interrupted,
            "wall_s": round(self.wall_s, 6),
            "run_seconds": round(self.run_seconds, 6),
            "cache": {
                "dir": self.cache_dir,
                "fingerprint": self.fingerprint,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "runs": [result.meta_dict() for result in self.results],
            "failures": [failure.to_json_dict()
                         for failure in self.failures],
            "reports": {
                report.name: {
                    "artifact": report.artifact,
                    "slug": report.slug,
                    "text": report.text,
                    "sha256": hashlib.sha256(
                        report.text.encode()).hexdigest(),
                }
                for report in self.reports
            },
            "metrics": self.metrics,
        }

    def render_footer(self) -> str:
        cached = (f"{self.cache_hits} cache hits, "
                  f"{self.cache_misses} executed")
        failed = (f" | {len(self.failures)} FAILED"
                  if self.failures else "")
        interrupted = " | INTERRUPTED (resume with --resume)" \
            if self.interrupted else ""
        return (f"bench summary: {len(self.results)} runs "
                f"({cached}) across {len(self.reports)} experiments | "
                f"jobs={self.jobs} wall={self.wall_s:.2f}s "
                f"cpu-run-time={self.run_seconds:.2f}s{failed}{interrupted}")


def execute(specs: Sequence[ExperimentSpec], *, jobs: int = 1,
            quick: bool = False, cache: Optional[ResultCache] = None,
            use_cache: bool = True,
            metrics: Optional[MetricsRegistry] = None,
            progress: Optional[Callable[[str], None]] = None,
            timeout_s: Optional[float] = None, retries: int = 0,
            journal: Optional[RunJournal] = None, resume: bool = False
            ) -> BenchSummary:
    """Run ``specs`` and return rendered reports plus run metadata.

    ``use_cache=False`` (``--no-cache``) forces recomputation but still
    *stores* fresh results, so the next cached invocation benefits.

    Two dispatch paths.  ``jobs=1`` with no ``timeout_s`` and no
    ``retries`` runs every miss inline, in this process — the reference
    ordering that parallel runs must reproduce exactly.  Everything else
    runs on the supervised pool (:mod:`repro.runner.pool`) with up to
    ``jobs`` workers: one killable process per run, so a worker that
    dies fails only its own run (``failure_kind="crash"``), a run past
    ``timeout_s`` is terminated, and a failed run is retried with
    backoff up to ``retries`` times before becoming a
    :class:`RunFailure`.

    Hardening knobs:

    * ``journal`` records every completion incrementally (crash-safe);
      with ``resume=True``, grid points the journal marks ``ok`` under
      the current cache key are served from the result cache and
      skipped even when ``use_cache`` is off.
    * SIGINT (main thread only) triggers a graceful drain: no new runs
      dispatch, in-flight runs finish and are journaled, and the
      summary comes back with ``interrupted=True`` so the CLI can exit
      130 — re-running with ``--resume`` picks up where the drain
      stopped.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    wall_hist = metrics.histogram("runner.run.wall_seconds",
                                  bounds=WALL_SECONDS_BUCKETS)
    hit_counter = metrics.counter("runner.cache.hits")
    miss_counter = metrics.counter("runner.cache.misses")
    metrics.gauge("runner.jobs").set(jobs)
    say = progress or (lambda _line: None)

    started = time.perf_counter()
    runs = plan_runs(specs, quick=quick, cache=cache)
    metrics.counter("runner.runs.total").inc(len(runs))

    outcomes: Dict[str, RunResult] = {}
    pending: List[RunSpec] = []
    for spec_run in runs:
        entry = None
        journaled_ok = (resume and journal is not None
                        and journal.completed_ok(spec_run.run_id,
                                                 spec_run.cache_key))
        if cache is not None and (use_cache or journaled_ok):
            # A journal "ok" alone is not a result: the payload must
            # still come from the cache.  A journaled run whose cache
            # entry is gone simply re-runs.
            entry = cache.load(spec_run)
        if entry is not None:
            hit_counter.inc()
            worker = "resume" if (journaled_ok and not use_cache) \
                else "cache"
            outcomes[spec_run.run_id] = RunResult(
                experiment=spec_run.experiment, label=spec_run.label,
                params=spec_run.params, seed=spec_run.seed,
                payload=entry["payload"], wall_s=entry.get("wall_s", 0.0),
                cache_hit=True, worker=worker)
            if journal is not None:
                journal.record_ok(spec_run.run_id, spec_run.cache_key,
                                  entry.get("wall_s", 0.0), worker)
            say(f"{spec_run.run_id}: cache hit")
        else:
            miss_counter.inc()
            pending.append(spec_run)

    def _finish(spec_run: RunSpec, payload: Any, wall: float,
                worker: str) -> None:
        wall_hist.observe(wall)
        outcomes[spec_run.run_id] = RunResult(
            experiment=spec_run.experiment, label=spec_run.label,
            params=spec_run.params, seed=spec_run.seed, payload=payload,
            wall_s=wall, cache_hit=False, worker=worker)
        if cache is not None:
            cache.store(spec_run, payload, wall)
        if journal is not None:
            journal.record_ok(spec_run.run_id, spec_run.cache_key, wall,
                              worker)
        say(f"{spec_run.run_id}: ran in {wall:.2f}s ({worker})")

    failures: List[RunFailure] = []
    failed_counter = metrics.counter("runner.runs.failed")

    def _record_failure(failure: RunFailure, spec_run: RunSpec) -> None:
        failed_counter.inc()
        failures.append(failure)
        if journal is not None:
            journal.record_failure(spec_run.run_id, spec_run.cache_key,
                                   failure.error_type,
                                   failure_kind=failure.failure_kind)
        say(failure.render())

    # SIGINT → graceful drain.  Handlers only install on the main thread
    # (the signal module refuses elsewhere); the supervised pool's
    # children ignore SIGINT outright so the drain stays in the
    # supervisor's hands.
    stop_event = threading.Event()
    previous_handler = None
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        def _handle_sigint(_signum, _frame) -> None:
            if stop_event.is_set():
                raise KeyboardInterrupt  # second Ctrl-C: stop insisting
            stop_event.set()
            say("interrupt: draining in-flight runs "
                "(Ctrl-C again to abort)")
        previous_handler = signal.signal(signal.SIGINT, _handle_sigint)

    try:
        if jobs <= 1 and timeout_s is None and retries == 0:
            for spec_run in pending:
                if stop_event.is_set():
                    break
                try:
                    payload, wall = _execute_payload(
                        spec_run.experiment, spec_run.label,
                        spec_run.params, spec_run.seed)
                except KeyboardInterrupt:
                    stop_event.set()
                    break
                except Exception as exc:
                    _record_failure(RunFailure.from_exception(
                        spec_run, exc, worker="inline"), spec_run)
                    continue
                _finish(spec_run, payload, wall, worker="inline")
        else:
            workers = min(max(1, jobs), max(1, len(pending)))
            worker = f"supervised-{workers}"

            def _record_outcome(outcome: PoolOutcome) -> None:
                # Called as each run ends, so it is cached and journaled
                # before the runs still in flight finish.
                if outcome.ok:
                    _finish(outcome.spec, outcome.payload, outcome.wall_s,
                            worker=worker)
                else:
                    _record_failure(RunFailure(
                        experiment=outcome.spec.experiment,
                        label=outcome.spec.label,
                        error_type=outcome.error_type,
                        message=outcome.message,
                        traceback=outcome.traceback,
                        worker=worker,
                        failure_kind=outcome.failure_kind), outcome.spec)

            run_supervised(pending, jobs=workers, timeout_s=timeout_s,
                           retries=retries, should_stop=stop_event.is_set,
                           on_outcome=_record_outcome)
    except KeyboardInterrupt:
        stop_event.set()
    finally:
        if on_main_thread:
            signal.signal(signal.SIGINT, previous_handler)

    interrupted = stop_event.is_set()
    failed_by_spec: Dict[str, List[RunFailure]] = {}
    for failure in failures:
        failed_by_spec.setdefault(failure.experiment, []).append(failure)

    reports: List[ExperimentReport] = []
    all_results: List[RunResult] = []
    for spec in specs:
        points = spec.points(quick)
        spec_results = [outcomes[f"{spec.name}/{label}"]
                        for label, _params in points
                        if f"{spec.name}/{label}" in outcomes]
        spec_failures = failed_by_spec.get(spec.name, ())
        if spec_failures:
            # Partial payloads would feed the report hook a grid it never
            # expects; render the failure record instead.
            text = "\n".join(
                [f"{spec.name}: {len(spec_failures)} run(s) failed"]
                + [f"  {failure.render()}" for failure in spec_failures])
        elif interrupted and len(spec_results) < len(points):
            text = (f"{spec.name}: interrupted with "
                    f"{len(spec_results)}/{len(points)} runs complete "
                    f"(re-run with --resume to finish)")
        else:
            payloads = {result.label: result.payload
                        for result in spec_results}
            text = spec.report(payloads)
        reports.append(ExperimentReport(
            name=spec.name, artifact=spec.artifact, slug=spec.slug,
            text=text, runs=spec_results))
        all_results.extend(spec_results)

    executed = sum(1 for result in outcomes.values()
                   if not result.cache_hit)
    return BenchSummary(
        reports=reports,
        results=all_results,
        jobs=jobs,
        quick=quick,
        wall_s=time.perf_counter() - started,
        cache_hits=hit_counter.value,
        cache_misses=executed,
        cache_dir=str(cache.root) if cache is not None else None,
        fingerprint=cache.fingerprint if cache is not None else None,
        metrics=metrics.snapshot(),
        failures=failures,
        interrupted=interrupted,
    )


def run_benchmarks(only: Iterable[str] = (), *, jobs: int = 1,
                   quick: bool = False, use_cache: bool = True,
                   cache_dir: Optional[os.PathLike] = None,
                   metrics: Optional[MetricsRegistry] = None,
                   progress: Optional[Callable[[str], None]] = None,
                   timeout_s: Optional[float] = None, retries: int = 0,
                   resume: bool = False,
                   journal_path: Optional[os.PathLike] = None
                   ) -> BenchSummary:
    """The library face of ``python -m repro bench``.

    A journal is kept whenever ``resume`` or an explicit
    ``journal_path`` asks for one; its default location is derived from
    the campaign shape (experiments + mode + code fingerprint) under the
    cache root, so interrupted invocations of the *same* campaign find
    each other's progress automatically.
    """
    specs = resolve_names(only)
    cache = ResultCache(pathlib.Path(cache_dir) if cache_dir else None)
    journal: Optional[RunJournal] = None
    if resume or journal_path is not None:
        path = (pathlib.Path(journal_path) if journal_path is not None
                else default_journal_path(cache.root,
                                          [spec.name for spec in specs],
                                          quick, cache.fingerprint))
        journal = RunJournal(path).open_for(cache.fingerprint)
    try:
        return execute(specs, jobs=jobs, quick=quick, cache=cache,
                       use_cache=use_cache, metrics=metrics,
                       progress=progress, timeout_s=timeout_s,
                       retries=retries, journal=journal, resume=resume)
    finally:
        if journal is not None:
            journal.close()


def run_for_bench(name: str, quick: bool = False):
    """Execute one experiment serially, uncached; return
    ``({label: payload}, report_text)``.

    ``repro run`` prints the report; the parity pins and the ablation
    shape tests assert on the payloads.  All of them want real
    execution, never a cache hit.
    """
    spec = get_experiment(name)
    summary = execute([spec], jobs=1, quick=quick, cache=None,
                      use_cache=False)
    if summary.failures:
        # A crashing experiment raises instead of returning partial
        # payloads: callers read every grid point's payload.
        raise BenchFailedError(summary.failures)
    payloads = {result.label: result.payload
                for result in summary.results}
    return payloads, summary.reports[0].text


def write_reports(summary: BenchSummary,
                  directory: os.PathLike) -> List[pathlib.Path]:
    """Archive each experiment's rendered report as
    ``<directory>/<slug>.txt`` (``repro bench --reports``)."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for report in summary.reports:
        path = out_dir / f"{report.slug}.txt"
        path.write_text(report.text + "\n")
        paths.append(path)
    return paths


def default_jobs() -> int:
    """Default ``--jobs``: one worker per CPU."""
    return max(1, os.cpu_count() or 1)

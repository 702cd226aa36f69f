"""``repro.runner`` — parallel experiment orchestration with cached results.

The paper's evaluation (HALO, ISCA 2019, §6) is a batched parameter
sweep: every figure and table is a grid of independent simulation runs
(table sizes for Figure 9, traffic profiles for Figure 3, NFs for
Figures 12/13, design knobs for the §4.7 ablations).  This package turns
that structure into an orchestration subsystem:

* :mod:`repro.runner.registry` discovers every experiment module under
  :mod:`repro.analysis.experiments` through the module-level ``BENCH``
  declaration (name, paper artifact, parameter grid, run/report hooks);
* :mod:`repro.runner.scheduler` runs the independent grid points with
  deterministic per-run seeds — inline at ``--jobs 1``, otherwise on
  the supervised pool — so ``--jobs 4`` produces bit-identical results
  to serial execution;
* :mod:`repro.runner.cache` memoizes completed runs in a
  content-addressed on-disk cache keyed on experiment name, grid label,
  parameters, seed, and a fingerprint of the ``repro`` source tree —
  re-runs are instant until the code changes;
* :mod:`repro.runner.pool` supervises one killable process per run —
  a crashed worker fails only its own run, hung runs are terminated at
  their ``--timeout`` deadline, and failures are retried with backoff
  up to ``--retries`` times;
* :mod:`repro.runner.journal` keeps an append-only, crash-safe record of
  completed runs so ``--resume`` skips finished work after a crash or a
  Ctrl-C (which drains in-flight runs gracefully and exits 130);
* :mod:`repro.runner.schema` defines the grid/run/result dataclasses
  shared by all of the above.

Entry points: ``python -m repro bench`` (the CLI, backed by
:func:`run_benchmarks`) and ``python -m repro run`` (one experiment at a
time, backed by :func:`run_for_bench`).  Each experiment's paper claims
live in its report, as ``PaperCheck`` lines.  Runner-level metrics
(cache hits/misses, per-run wall time) are published through a
:class:`repro.obs.MetricsRegistry`.  The simulator's own host speed is
measured outside the package, by ``benchmarks/e2e``.  See
``docs/EXPERIMENTS.md`` for the experiment catalog and
``docs/ARCHITECTURE.md`` for where this package sits in the system.
"""

from __future__ import annotations

from .cache import CACHE_FORMAT_VERSION, ResultCache, code_fingerprint
from .journal import RunJournal, campaign_id, default_journal_path
from .pool import PoolOutcome, RunTimeoutError, WorkerCrashedError, \
    classify_failure, run_supervised
from .registry import (
    ExperimentLoadError,
    UnknownExperimentError,
    discover,
    get_experiment,
    resolve_names,
)
from .scheduler import (
    BenchFailedError,
    BenchSummary,
    RunFailure,
    default_jobs,
    derive_seed,
    execute,
    plan_runs,
    run_benchmarks,
    run_for_bench,
    write_reports,
)
from .schema import ExperimentSpec, GridPoint, RunResult, RunSpec

__all__ = [
    "BenchFailedError",
    "BenchSummary",
    "CACHE_FORMAT_VERSION",
    "ExperimentLoadError",
    "ExperimentSpec",
    "GridPoint",
    "PoolOutcome",
    "ResultCache",
    "RunFailure",
    "RunJournal",
    "RunResult",
    "RunSpec",
    "RunTimeoutError",
    "UnknownExperimentError",
    "WorkerCrashedError",
    "campaign_id",
    "classify_failure",
    "code_fingerprint",
    "default_jobs",
    "default_journal_path",
    "derive_seed",
    "discover",
    "execute",
    "get_experiment",
    "plan_runs",
    "resolve_names",
    "run_benchmarks",
    "run_for_bench",
    "run_supervised",
    "write_reports",
]

"""Command-line entry point: list, run, and benchmark the paper's
experiments.

Usage::

    python -m repro list
    python -m repro run fig11 [--quick]
    python -m repro run all
    python -m repro bench [--jobs N] [--only fig09,fig13] [--quick]
                          [--no-cache] [--cache-dir DIR]
                          [--json out.json] [--reports DIR]
                          [--timeout SECONDS] [--retries N]
                          [--resume] [--journal PATH]
    python -m repro report [--quick] [--json metrics.json]

``run`` executes experiments serially and prints the same
paper-vs-measured report ``bench --reports`` archives; ``--quick``
shrinks workloads for a fast look.

``bench`` drives the full experiment registry through
:mod:`repro.runner`: independent grid points shard across ``--jobs``
worker processes, completed runs memoize in a content-addressed on-disk
cache (keyed on params + a fingerprint of the ``repro`` source, so any
code change recomputes), and ``--reports benchmarks/reports``
regenerates every archived report from one command.  ``--no-cache``
forces recomputation; ``--json`` exports run metadata, per-experiment
report digests, and the runner's own metrics registry.  ``--timeout``
kills runs that blow their wall-clock budget (``--retries`` re-runs
them a bounded number of times first); ``--resume`` replays the
campaign journal so a crashed or Ctrl-C'd invocation picks up where it
stopped.  Ctrl-C drains in-flight runs gracefully and exits 130.

``report`` drives a demo workload (table lookups in all three modes plus
a virtual-switch packet stream) and renders the per-component metrics
breakdown from the observability registry; ``--json`` additionally
writes the full metrics + trace-span export.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, Dict, Tuple

from .runner import (
    UnknownExperimentError,
    default_jobs,
    discover,
    run_benchmarks,
    run_for_bench,
    write_reports,
)


def _registry_runner(name: str) -> Callable[[bool], str]:
    def _run(quick: bool) -> str:
        _payloads, text = run_for_bench(name, quick=quick)
        return text
    return _run


#: CLI-name → (description, callable(quick) -> report text), built from the
#: runner registry so ``run`` and ``bench`` can never drift apart.
EXPERIMENTS: Dict[str, Tuple[str, Callable[[bool], str]]] = {
    name: (spec.title, _registry_runner(name))
    for name, spec in discover().items()
}


def run_report_demo(quick: bool = False):
    """The demo workload behind ``python -m repro report``.

    Exercises every instrumented layer on one machine: software, blocking
    and non-blocking lookups against a shared table, an adaptive (hybrid)
    episode, a degraded non-blocking episode under an injected accelerator
    outage (populating the ``faults.*`` and ``exec.resilience.*``
    counters), an RSS fail/restore cycle (populating the
    ``cluster.failover.*`` counters), and a virtual-switch packet
    stream.  The standard safety
    net (:mod:`repro.guard`) rides along, so the ``guard.*`` counters
    show how many events it observed and invariants it checked.  Returns the
    :class:`~repro.core.halo_system.HaloSystem` with its registry loaded.
    """
    from .cluster import RssBalancer
    from .core.halo_system import HaloSystem
    from .exec import ResiliencePolicy
    from .faults import FaultInjector, FaultPlan
    from .guard import attach_standard_guard
    from .traffic.generator import FlowSet, PacketStream, random_keys
    from .traffic.profiles import FIGURE3_PROFILES
    from .vswitch.switch import SwitchMode, VirtualSwitch

    lookups = 40 if quick else 200
    system = HaloSystem()
    attach_standard_guard(system)
    table = system.create_table(1 << 10, name="report_demo")
    keys = random_keys(600, seed=11)
    table.insert_many(zip(keys, range(len(keys))))
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    system.run_software_lookups(table, keys[:lookups])
    system.run_blocking_lookups(table, keys[:lookups])
    system.run_nonblocking_lookups(table, keys[lookups:2 * lookups])
    system.run_adaptive_lookups(table, keys[:lookups], window=64)

    # Degraded episode: the table's slice goes dark for a stretch; the
    # resilient non-blocking backend times out, falls back to software,
    # probes, and recovers once the outage lifts.
    outage_slice = system.hierarchy.interconnect.slice_of_table(
        table.table_addr)
    start = system.engine.now
    injector = FaultInjector(system, FaultPlan.slice_outage(
        outage_slice, start=start + 200, end=start + (2_000 if quick
                                                      else 8_000)))
    injector.install()
    backend = system.backend(
        "halo-nb",
        policy=ResiliencePolicy(poll_budget=8, max_retries=1,
                                probe_interval=8))
    system.run_program(backend.lookup_stream(table, keys[:lookups]),
                       name="degraded_stream")
    injector.uninstall()

    # Failover vignette: an RSS balancer loses a shard and re-steers its
    # indirection-table entries across the survivors, then takes it back —
    # populating the ``cluster.failover.*`` counters and the
    # ``failover.resteer`` span trees CI greps for in this report.
    balancer = RssBalancer(shards=4, table_size=32, seed=3,
                           metrics=system.obs.metrics,
                           trace=system.obs.trace)
    balancer.fail_shard(2)
    balancer.restore_shard(2)

    profile = FIGURE3_PROFILES[0]
    flow_set = FlowSet.generate(min(profile.num_flows, 2000),
                                seed=profile.seed, groups=profile.num_rules)
    switch = VirtualSwitch(system, SwitchMode.SOFTWARE,
                           megaflow_tuple_capacity=1 << 14)
    switch.install_rules(profile.build_rules(flow_set))
    switch.prewarm_megaflows(flow_set.flows)
    switch.warm()
    stream = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=5)
    switch.process_stream(stream.take(30 if quick else 120))
    return system


def _report(quick: bool, json_path=None) -> str:
    from .obs import render_component_totals

    system = run_report_demo(quick)
    sections = [
        system.report(),
        render_component_totals(system.obs.metrics.snapshot()),
        f"trace: {len(system.obs.trace)} span trees recorded "
        f"(export with --json)",
    ]
    if json_path:
        system.obs.write_json(json_path)
        sections.append(f"full metrics + spans written to {json_path}")
    return "\n\n".join(sections)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


def _positive_seconds(text: str) -> float:
    """An argparse ``type``: a finite number of seconds above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, got {text!r}")
    return value


def _reports_dir(text: str) -> str:
    """An argparse ``type``: a directory to write reports into, which
    may not exist yet but must not be an existing file."""
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} exists and is not a directory")
    return text


def _bench(args) -> int:
    only = [name for chunk in (args.only or [])
            for name in chunk.split(",") if name]

    def _progress(line: str) -> None:
        print(f"  {line}", file=sys.stderr, flush=True)

    try:
        summary = run_benchmarks(
            only, jobs=args.jobs, quick=args.quick,
            use_cache=not args.no_cache, cache_dir=args.cache_dir,
            progress=_progress, timeout_s=args.timeout,
            retries=args.retries, resume=args.resume,
            journal_path=args.journal)
    except UnknownExperimentError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    for report in summary.reports:
        print(report.text)
        print()
    if args.reports:
        paths = write_reports(summary, args.reports)
        print(f"archived {len(paths)} reports under {args.reports}",
              file=sys.stderr)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(summary.to_json_dict(), handle, indent=2,
                          sort_keys=True, default=float)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}",
                  file=sys.stderr)
            return 1
    print(summary.render_footer())
    if summary.failures:
        print(f"{len(summary.failures)} run(s) FAILED:", file=sys.stderr)
        for failure in summary.failures:
            print(f"  {failure.render()}", file=sys.stderr)
            print(failure.traceback, file=sys.stderr)
    if summary.interrupted:
        print("interrupted: completed runs are journaled; "
              "re-run with --resume to finish", file=sys.stderr)
        return 130
    return 1 if summary.failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HALO (ISCA 2019) reproduction — experiment runner")
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run experiment(s)")
    run_parser.add_argument("experiment",
                            choices=sorted(EXPERIMENTS) + ["all"])
    run_parser.add_argument("--quick", action="store_true",
                            help="shrink workloads for a fast look")

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the experiment registry in parallel, with caching")
    bench_parser.add_argument("--jobs", type=_int_at_least(1),
                              default=default_jobs(),
                              metavar="N",
                              help="worker processes (default: CPU count)")
    bench_parser.add_argument("--only", action="append", metavar="NAMES",
                              help="comma-separated experiment names "
                                   "(repeatable); default: all")
    bench_parser.add_argument("--quick", action="store_true",
                              help="shrink workloads for a fast look")
    bench_parser.add_argument("--no-cache", action="store_true",
                              help="recompute even when cached")
    bench_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                              help="result cache location (default: "
                                   "$REPRO_CACHE_DIR or "
                                   "~/.cache/repro-bench)")
    bench_parser.add_argument("--json", metavar="PATH", default=None,
                              help="write run metadata + report digests + "
                                   "runner metrics as JSON")
    bench_parser.add_argument("--reports", type=_reports_dir,
                              metavar="DIR", default=None,
                              help="archive each experiment report as "
                                   "DIR/<slug>.txt (use benchmarks/reports "
                                   "to regenerate the checked-in set)")
    bench_parser.add_argument("--timeout", type=_positive_seconds,
                              default=None,
                              metavar="SECONDS",
                              help="per-run wall-clock budget; hung runs "
                                   "are killed (and retried, see "
                                   "--retries) instead of wedging the "
                                   "campaign")
    bench_parser.add_argument("--retries", type=_int_at_least(0),
                              default=0,
                              metavar="N",
                              help="re-run a timed-out or crashed worker "
                                   "up to N times with backoff before "
                                   "recording the failure")
    bench_parser.add_argument("--resume", action="store_true",
                              help="skip runs the campaign journal marks "
                                   "complete (after a crash or Ctrl-C)")
    bench_parser.add_argument("--journal", metavar="PATH", default=None,
                              help="campaign journal location (default: "
                                   "derived from the campaign under the "
                                   "cache dir; implies journaling)")

    report_parser = subparsers.add_parser(
        "report",
        help="demo workload + per-component metrics breakdown")
    report_parser.add_argument("--quick", action="store_true",
                               help="shrink the demo workload")
    report_parser.add_argument("--json", metavar="PATH", default=None,
                               help="also write metrics + spans as JSON")
    args = parser.parse_args(argv)

    if args.command == "list" or args.command is None:
        print("experiments (python -m repro run <name> [--quick] | "
              "python -m repro bench):")
        for name, (description, _func) in sorted(EXPERIMENTS.items()):
            print(f"  {name:12s} {description}")
        return 0

    if args.command == "bench":
        return _bench(args)

    if args.command == "report":
        try:
            print(_report(args.quick, args.json))
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 1
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        _description, func = EXPERIMENTS[name]
        print(func(args.quick))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end host-time benchmark of the HALO reproduction.

Run one workload in this process, from the repository root::

    python3 benchmarks/e2e/run.py --workload vswitch_gateway --seed 1 \
        --seconds 12 --trace 0 [--json result.json] [--spans spans.json]

The run builds the workload's state ``SETUP_REPEATS`` times, measures
closed-loop samples for ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``), checks every output against an independent oracle,
and prints every metric of ``BENCHMARK.json`` with its unit.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 1 when an output is
wrong and 2, with no result printed, when the run cannot start or ends
before the samples hashed into ``outputs_digest``.

``--check`` only checks that the code produces every workload and metric
``BENCHMARK.json`` declares, and declares every one it produces.
``--write-reference FILE...`` rebuilds ``reference.json`` from result files
(see README.md).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` a traced run measures with the wrappers removed,
#: to measure the tracing overhead.
UNTRACED_SHARE = 0.25

sys.path.insert(0, str(HERE))
import e2e_metrics  # noqa: E402  (needs no repro import)


def _strip_repro_env() -> List[str]:
    """Remove every ``REPRO_*`` variable so both commits run the library
    defaults; returns the removed names."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def _git_commit() -> Optional[str]:
    """HEAD's commit read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def weighted_quantile(values: Sequence[float], weights: Sequence[float],
                      q: float) -> float:
    """The smallest value whose cumulative weight reaches ``q`` of the
    total.  With equal weights this is the nearest-rank quantile."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    running = 0.0
    for value, weight in pairs:
        running += weight
        if running >= q * total:
            return value
    return pairs[-1][0]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Digest:
    """``outputs_digest`` over the first ``digest_samples`` samples, and
    the peak RSS when they are done.

    ``peak_rss_mb`` is read there, not at the end: past set-up, memory
    grows with the work a run completes (memo tables, megaflow installs),
    and a run's length in work depends on the host.
    """

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.done = False
        self.rss_mb = 0.0

    def add(self, text: str, done: bool) -> None:
        self.sha.update(text.encode())
        if done:
            self.done = True
            self.rss_mb = _peak_rss_mb()

    def hexdigest(self) -> str:
        return self.sha.hexdigest()


class _GcTimer:
    """Collections and their time, via ``gc.callbacks``, while active."""

    def __init__(self) -> None:
        self.active = False
        self.count = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.count += 1
            self.seconds += time.perf_counter() - self._start


def _measure(workload, clock, seconds: float, first_index: int, digest,
             recorder=None) -> List[tuple]:
    """Closed-loop samples for ``seconds`` of wall time.

    Returns ``(start, end, ops, work, failed, tag)`` per sample.  Only the
    ``run`` call is inside ``[start, end]``; inputs, oracle checks and
    kernel samples sit between samples.
    """
    run = workload.run
    if recorder is not None:
        def run(prepared):
            return recorder.call("bench.sample", "bench", workload.run,
                                 prepared)
    samples = []
    index = first_index
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        prepared = workload.prepare(index)
        if recorder is not None:
            recorder.phase, recorder.sample_id = "measure", index
        start = time.perf_counter()
        output = run(prepared)
        end = time.perf_counter()
        if recorder is not None:
            recorder.phase, recorder.sample_id = "between", -1
        ops, failed, work = workload.check(prepared, output)
        if index < workload.digest_samples:
            digest.add(workload.digest(prepared, output),
                       done=index + 1 == workload.digest_samples)
        samples.append((start, end, ops, work, failed,
                        workload.tag(prepared)))
        clock.maybe_sample()
        index += 1
    clock.sample()
    return samples


def _ops_per_s(clock, samples: List[tuple]) -> float:
    return (sum(s[3] for s in samples)
            / sum(clock.calibrated(s[0], s[1]) for s in samples))


def _rates(clock, samples: List[tuple], tail_q: float) -> Dict[str, float]:
    """ops/s and per-op percentiles, calibrated and raw."""
    out: Dict[str, float] = {}
    work = [s[3] for s in samples]
    for prefix, seconds in (
            ("", [clock.calibrated(s[0], s[1]) for s in samples]),
            ("raw.", [clock.raw(s[0], s[1]) for s in samples])):
        per_op = [1e6 * t / w for t, w in zip(seconds, work)]
        out[prefix + "ops_per_s"] = sum(work) / sum(seconds)
        out[prefix + "op_us_p50"] = weighted_quantile(per_op, work, 0.50)
        out[prefix + "op_us_tail"] = weighted_quantile(per_op, work, tail_q)
    return out


def _per_layer(recorder, clock, setups, untraced, traced, counters,
               gc_timer) -> Dict[str, float]:
    """Every per-layer metric of a traced run."""
    layers = e2e_metrics.LAYER_MOVES
    measured = sum(s[1] - s[0] for s in traced)
    setup = sum(end - start for start, end in setups)
    out: Dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.calls"] = recorder.calls("measure", layer)
        out[f"{layer}.self_frac"] = (
            recorder.self_seconds("measure", layer) / measured)
        out[f"{layer}.setup_frac"] = (
            recorder.self_seconds("setup", layer) / setup)
    out["bench.self_frac"] = recorder.self_seconds("measure", "bench") / measured
    out.update(counters)
    out["python.gc_frac"] = gc_timer.seconds / measured
    out["python.gc_collections"] = gc_timer.count
    shares = _tag_shares(clock, traced)
    for name in e2e_metrics.EXPERIMENTS:
        out[f"analysis.{name}.share"] = shares.get(name, 0.0)
    out["host.calibration_cv"] = clock.cv()
    out["trace.overhead_ratio"] = (_ops_per_s(clock, untraced)
                                   / _ops_per_s(clock, traced))
    out["trace.coverage"] = sum(
        recorder.self_seconds("measure", layer) for layer in layers) / measured
    return out


def _windows(clock, samples: List[tuple]) -> List[List[float]]:
    """``[raw seconds, work, bracketing kernel]`` per stretch of samples
    between two kernel samples: the data ``alpha`` is fitted on."""
    groups: Dict[int, List[float]] = {}
    for start, end, _ops, work, _failed, _tag in samples:
        group = groups.setdefault(bisect.bisect(clock.times, start),
                                  [0.0, 0.0, start, end])
        group[0] += clock.raw(start, end)
        group[1] += work
        group[3] = end
    return [[seconds, work, clock.host_kernel(start, end)]
            for seconds, work, start, end in groups.values() if work > 0]


def _tag_shares(clock, samples: List[tuple]) -> Dict[str, float]:
    total = 0.0
    shares: Dict[str, float] = {}
    for start, end, _ops, _work, _failed, tag in samples:
        seconds = clock.calibrated(start, end)
        total += seconds
        if tag:
            shares[tag] = shares.get(tag, 0.0) + seconds
    return {tag: value / total for tag, value in shares.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict, sizes: Optional[dict] = None) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    from e2e_clock import CalibratedClock
    from e2e_spans import SpanRecorder
    from e2e_workloads import COUNTER_NAMES, WORKLOADS, ExperimentsWorkload

    kwargs = dict(sizes or {})
    if WORKLOADS[name] is ExperimentsWorkload:
        kwargs.setdefault("point_s", reference.get("experiment_point_s", {}))
    workload = WORKLOADS[name](seed, **kwargs)
    clock = CalibratedClock(reference["reference_s"],
                            reference.get("alpha", {}).get(name, 1.0))
    recorder = None
    if trace:
        recorder = SpanRecorder()
        recorder.install()
        workload.recorder = recorder

    setups = []
    for _ in range(SETUP_REPEATS):
        workload.discard()
        gc.collect()
        clock.sample()
        start = time.perf_counter()
        if recorder is not None:
            recorder.phase = "setup"
            recorder.call("bench.setup", "bench", workload.build, clock)
            recorder.phase = "between"
        else:
            workload.build(clock)
        end = time.perf_counter()
        clock.sample()
        setups.append((start, end))

    gc_timer = _GcTimer()
    gc.callbacks.append(gc_timer)
    digest = _Digest()
    workload.start_measure()
    try:
        if recorder is not None:
            recorder.uninstall()
            untraced = _measure(workload, clock, seconds * UNTRACED_SHARE, 0,
                                digest)
            recorder.install()
            gc_timer.active = True
            samples = _measure(workload, clock,
                               seconds * (1 - UNTRACED_SHARE), len(untraced),
                               digest, recorder)
            recorder.uninstall()
            measured = untraced + samples
        else:
            gc_timer.active = True
            samples = measured = _measure(workload, clock, seconds, 0, digest)
    finally:
        gc_timer.active = False
        gc.callbacks.remove(gc_timer)
    if not digest.done:
        raise RuntimeError(
            f"the run ended after {len(measured)} samples, before the "
            f"{workload.digest_samples} hashed into outputs_digest")

    ops = sum(s[2] for s in measured)
    failed = sum(s[4] for s in measured)
    counters = {key: 0.0 for key in COUNTER_NAMES}
    counters.update(workload.counters(ops))
    setup_s = [clock.calibrated(start, end) for start, end in setups]
    rates = _rates(clock, samples, workload.tail_q)
    metrics = {
        "ops_per_s": rates["ops_per_s"],
        "op_us_p50": rates["op_us_p50"],
        "op_us_tail": rates["op_us_tail"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": digest.rss_mb,
    }
    raw = {key: value for key, value in rates.items()
           if key.startswith("raw.")}
    raw["raw.setup_s"] = statistics.median(
        clock.raw(start, end) for start, end in setups)
    raw["raw.end_rss_mb"] = _peak_rss_mb()
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "op": workload.op, "tail_q": workload.tail_q,
        "correct": failed == 0, "attempted": ops, "failed": failed,
        "samples": len(samples),
        "outputs_digest": digest.hexdigest(),
        "end_to_end": metrics, "raw": raw, "counters": counters,
        "setup_s_all": setup_s,
        "python_gc": {"collections": gc_timer.count,
                      "seconds": gc_timer.seconds},
        "calibration": {"reference_s": clock.reference_s,
                        "alpha": clock.alpha, "kernel_s": clock.kernel,
                        "cv": clock.cv(),
                        "windows": _windows(clock, measured)},
    }
    if isinstance(workload, ExperimentsWorkload):
        result["experiment_points"] = [
            [f"{item[0].name}/{item[1]}", clock.raw(s[0], s[1]),
             clock.host_kernel(s[0], s[1])]
            for item, s in ((workload.prepare(index), s)
                            for index, s in enumerate(measured))]
        result["experiment_share"] = _tag_shares(clock, samples)
    if recorder is not None:
        result["per_layer"] = _per_layer(recorder, clock, setups, untraced,
                                         samples, counters, gc_timer)
        result["spans"] = recorder.export()
    return result


def _metric_line(result: dict, trace: bool, bench: dict) -> dict:
    """The contract's last line: every metric ``BENCHMARK.json`` declares
    for this mode, with its declared unit."""
    declared, values = ((bench["per_layer"], result["per_layer"]) if trace
                        else (bench["end_to_end"], result["end_to_end"]))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in declared}}


def make_reference(paths: Sequence[str], workloads: Sequence[str]) -> dict:
    """``reference.json`` from result files.

    ``reference_s`` is the tenth percentile of every kernel sample (the
    uncontended host state); ``alpha`` is fitted per workload so its runs
    agree best (for ``experiments_quick``, so each grid point's runs do);
    ``experiment_point_s`` is each point's median time calibrated with
    them.
    """
    from e2e_clock import fit_alpha

    results = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        results += loaded if isinstance(loaded, list) else [loaded]
    kernel = [k for r in results for k in r["calibration"]["kernel_s"]]
    reference_s = statistics.quantiles(kernel, n=10)[0]
    alpha: Dict[str, float] = {}
    points: Dict[str, List[tuple]] = {}
    for r in results:
        for key, raw_s, host_kernel in r.get("experiment_points", ()):
            points.setdefault(key, []).append((raw_s, host_kernel))
    for name in workloads:
        if name == "experiments_quick":
            groups = [[[(raw_s, 1.0, k)] for raw_s, k in pairs]
                      for pairs in points.values()]
        else:
            groups = [[r["calibration"]["windows"] for r in results
                       if r["workload"] == name]]
        if any(groups):
            alpha[name] = fit_alpha(groups)
    points_alpha = alpha.get("experiments_quick", 1.0)
    point_s = {key: statistics.median(
        raw_s * (reference_s / k) ** points_alpha for raw_s, k in pairs)
        for key, pairs in sorted(points.items())}
    return {"reference_s": reference_s, "alpha": alpha,
            "experiment_point_s": point_s}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        bench = e2e_metrics.load_benchmark()
        workloads = [w["name"] for w in bench["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc!r}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(bench.get("run_seconds", 10)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the full result here")
    parser.add_argument("--spans", help="traced runs: write spans here")
    parser.add_argument("--check", action="store_true",
                        help="only compare BENCHMARK.json with the code")
    parser.add_argument("--write-reference", nargs="+", metavar="RESULT",
                        help="rebuild reference.json from result files")
    args = parser.parse_args(argv)

    removed = _strip_repro_env()
    from e2e_clock import REFERENCE_FILE, load_reference
    if args.write_reference:
        reference = make_reference(args.write_reference, workloads)
        with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=2)
            handle.write("\n")
        print(f"wrote {REFERENCE_FILE}")
        return 0

    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        from e2e_workloads import WORKLOADS
    except Exception:
        traceback.print_exc()
        return 2
    problems = e2e_metrics.check(bench, list(WORKLOADS))
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    if args.check:
        if not problems:
            print("check: BENCHMARK.json matches the code")
        return 1 if problems else 0
    if problems:
        return 2
    if args.workload is None:
        parser.error("--workload is required")

    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), load_reference())
    except Exception:
        traceback.print_exc()
        return 2
    result["provenance"] = {
        "commit": _git_commit(), "python": platform.python_version(),
        "numpy": _has_numpy(), "nproc": os.cpu_count(),
        "removed_env": removed, "platform": platform.platform(),
    }
    spans = result.pop("spans", None)
    if args.spans and spans is not None:
        _write_json(args.spans, spans)
    if args.json:
        _write_json(args.json, result)

    print(f"workload={result['workload']} seed={result['seed']} "
          f"samples={result['samples']} op={result['op']!r} "
          f"outputs_digest={result['outputs_digest']}")
    line = _metric_line(result, bool(args.trace), bench)
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def _has_numpy() -> bool:
    import importlib.util
    return importlib.util.find_spec("numpy") is not None


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare end-to-end results of a parent and a change commit.

    python3 benchmarks/e2e/compare.py --parent P.json [...] --change C.json [...]

Each file holds one result written by ``run.py --json`` or a JSON list of
them.  Runs pair up by workload and seed (in file order within a seed), so
run parent and change alternately, same seeds, same ``--seconds``.  One row
per workload and end-to-end metric gives each side's median and quartiles,
the change's pair wins, and a verdict; directions and bounds come from
``BENCHMARK.json``:

* ``worse`` — the change's median is worse than the parent's by more than
  the metric's bound;
* ``better`` — there are at least ``MIN_PAIRS`` pairs, the change wins at
  least 90% of them (ties count for neither), and the medians differ by
  more than the parent's interquartile spread;
* ``unresolved`` — the change would be better but has fewer than
  ``MIN_PAIRS`` pairs, or either side's spread (interquartile range over
  median) exceeds the bound, unless every change run beats every parent
  run;
* ``same`` — otherwise.

It also reports whether ``outputs_digest`` agrees for every seed and each
side's failed share.  The exit code is 1 when any metric is ``worse``, a
digest differs, or the change fails more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

import e2e_metrics

#: Fewest alternating pairs that can show a gain.
MIN_PAIRS = 10


def load_results(paths: Sequence[str]) -> List[dict]:
    results: List[dict] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        results += loaded if isinstance(loaded, list) else [loaded]
    return results


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def pair_up(parent: List[dict], change: List[dict]
            ) -> Dict[str, List[Tuple[dict, dict]]]:
    """``{workload: [(parent run, change run), ...]}`` matched by seed."""
    pairs: Dict[str, List[Tuple[dict, dict]]] = {}
    by_key: Dict[tuple, List[dict]] = {}
    for run in change:
        by_key.setdefault((run["workload"], run["seed"]), []).append(run)
    for run in parent:
        candidates = by_key.get((run["workload"], run["seed"]))
        if candidates:
            pairs.setdefault(run["workload"], []).append(
                (run, candidates.pop(0)))
    return pairs


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Tuple[str, int]:
    """(verdict, pairs the change won) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    dominates = (min(sign * c for c in change) > max(sign * p for p in parent))
    if worse_by > bound:
        return "worse", wins
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > (p_q3 - p_q1) \
            and sign * (c_med - p_med) > 0:
        return ("better" if len(parent) >= MIN_PAIRS else "unresolved"), wins
    if (spread(parent) > bound or spread(change) > bound) and not dominates:
        return "unresolved", wins
    return "same", wins


def compare(parent: List[dict], change: List[dict],
            metrics: Sequence[dict]) -> Tuple[List[str], bool]:
    """Report lines, and whether the change passes.  ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json``."""
    lines: List[str] = []
    ok = True
    header = (f"{'workload':16s} {'metric':12s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'delta':>7s} {'wins':>6s} verdict")
    lines.append(header)
    for workload, pairs in pair_up(parent, change).items():
        for metric in metrics:
            name = metric["name"]
            p = [pr["end_to_end"][name] for pr, _ in pairs]
            c = [cr["end_to_end"][name] for _, cr in pairs]
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            ok &= result != "worse"
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            lines.append(
                f"{workload:16s} {name:12s} "
                f"{pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g} "
                f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} "
                f"{delta:+7.1%} {wins:>3d}/{len(pairs):<2d} {result}")
        digests = all(pr["outputs_digest"] == cr["outputs_digest"]
                      for pr, cr in pairs)
        failed = [sum(r["failed"] for r in side) / sum(r["attempted"]
                                                      for r in side)
                  for side in zip(*pairs)]
        ok &= digests and failed[1] <= failed[0]
        lines.append(f"{workload:16s} outputs_digest "
                     f"{'identical' if digests else 'DIFFERS'}; failed share "
                     f"parent {failed[0]:.3g}, change {failed[1]:.3g}")
    return lines, ok


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    lines, ok = compare(load_results(args.parent), load_results(args.change),
                        e2e_metrics.load_benchmark()["end_to_end"])
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

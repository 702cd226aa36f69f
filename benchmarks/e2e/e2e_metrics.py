"""What the benchmark produces, checked against ``BENCHMARK.json``.

``BENCHMARK.json`` is the one declaration of the workloads and of every
metric's unit, direction and bound; ``run.py`` and ``compare.py`` read them
from it.  This module only names the metrics the code produces and, for
each per-layer metric, the end-to-end metrics it should move, as
``metric@workload`` (diagnostics name none).  :func:`check` lists where
the two disagree.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Dict, List, Sequence, Tuple

BENCHMARK_FILE = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: End-to-end metrics every untraced run produces.
END_TO_END = ("ops_per_s", "op_us_p50", "op_us_tail", "setup_s",
              "peak_rss_mb")

#: Layer -> the end-to-end metrics its self time and calls should move.
#: Layers with a ``setup_s`` entry also report their share of set-up.
LAYER_MOVES: Dict[str, Tuple[str, ...]] = {
    "traffic": ("setup_s@vswitch_gateway", "setup_s@lookup_512k"),
    "workloads": ("setup_s@emc_churn",),
    "hashtable": ("setup_s@lookup_512k", "setup_s@vswitch_gateway",
                  "ops_per_s@emc_churn", "ops_per_s@experiments_quick"),
    "classifier": ("op_us_tail@vswitch_gateway", "ops_per_s@emc_churn",
                   "setup_s@emc_churn"),
    "vswitch": ("op_us_p50@vswitch_gateway", "setup_s@vswitch_gateway"),
    "core": ("op_us_p50@multicore_mixed", "ops_per_s@lookup_512k"),
    "exec": ("op_us_p50@multicore_mixed",),
    "sim.engine": ("ops_per_s@multicore_mixed", "op_us_p50@multicore_mixed",
                   "ops_per_s@lookup_512k"),
    "sim.core": ("ops_per_s@lookup_512k", "ops_per_s@multicore_mixed",
                 "op_us_p50@vswitch_gateway"),
    "sim.hierarchy": ("ops_per_s@lookup_512k", "op_us_p50@vswitch_gateway",
                      "setup_s@lookup_512k"),
    "runner": ("ops_per_s@experiments_quick", "setup_s@experiments_quick"),
    "analysis": ("ops_per_s@experiments_quick",),
}

#: Registered experiments the ``experiments_quick`` workload runs: the ones
#: whose paths the other four workloads do not already time (fig03,
#: cache_churn, multicore and fig10/fig12's lookups are left out), so their
#: quick grids fit one run.  These are the only timed paths through
#: ``repro.nf``, ``tcam``, ``faults`` and ``cluster``.
EXPERIMENTS = ("abl_prefetch", "abl_tlb", "cluster_chaos", "degradation",
               "fig04", "fig08", "fig09", "fig11", "fig13", "scaling_law",
               "sec34", "tab04", "updates")


def _per_layer() -> Dict[str, Tuple[str, ...]]:
    out: Dict[str, Tuple[str, ...]] = {}
    for layer, moves in LAYER_MOVES.items():
        out[f"{layer}.calls"] = out[f"{layer}.self_frac"] = moves
        setup_moves = tuple(m for m in moves if m.startswith("setup_s@"))
        if setup_moves:
            out[f"{layer}.setup_frac"] = setup_moves
    classifier = ("op_us_tail@vswitch_gateway", "ops_per_s@emc_churn")
    cache = ("ops_per_s@lookup_512k", "op_us_p50@vswitch_gateway")
    replay = ("ops_per_s@multicore_mixed", "ops_per_s@lookup_512k")
    gc = ("op_us_tail@lookup_512k", "peak_rss_mb@lookup_512k")
    out.update({
        "bench.self_frac": (),
        "hashtable.kicks_per_insert": ("setup_s@lookup_512k",
                                       "ops_per_s@emc_churn"),
        "sim.l1_hit_ratio": cache,
        "sim.llc_hit_ratio": cache,
        "sim.replay.batches": replay,
        "sim.replay.windows": replay,
        "sim.replay.serial_fallbacks": replay,
        "sim.engine.events_per_op": ("ops_per_s@multicore_mixed",
                                     "op_us_p50@multicore_mixed"),
        "classifier.emc_hit_ratio": classifier,
        "classifier.megaflow_hit_ratio": classifier,
        "classifier.upcall_ratio": classifier,
        "classifier.emc_evictions_per_op": classifier,
        "python.gc_frac": gc,
        "python.gc_collections": gc,
    })
    for name in EXPERIMENTS:
        out[f"analysis.{name}.share"] = ("ops_per_s@experiments_quick",)
    for name in ("host.calibration_cv", "trace.overhead_ratio",
                 "trace.coverage"):
        out[name] = ()
    return out


#: Per-layer metric -> the end-to-end metrics it should move.
PER_LAYER: Dict[str, Tuple[str, ...]] = _per_layer()


def load_benchmark(path: pathlib.Path = BENCHMARK_FILE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(bench: dict, workloads: Sequence[str]) -> List[str]:
    """Problems between a parsed ``BENCHMARK.json`` and the code, whose
    workloads are ``workloads``: every declared name must be produced, every
    produced name declared, and every name and unit well formed."""
    problems: List[str] = []
    for kind, declared, produced in (
            ("workload", bench.get("workloads", []), workloads),
            ("end-to-end metric", bench.get("end_to_end", []), END_TO_END),
            ("per-layer metric", bench.get("per_layer", []), PER_LAYER)):
        names = [entry.get("name") for entry in declared]
        problems += [f"bad name {name!r}" for name in names
                     if not isinstance(name, str) or not NAME_RE.match(name)]
        if len(set(map(str, names))) != len(names):
            problems.append(f"duplicate {kind} names")
        problems += [f"{kind} {name!r} is declared but not produced"
                     for name in names if name not in produced]
        problems += [f"{kind} {name!r} is produced but not declared"
                     for name in produced if name not in names]
    for entry in bench.get("end_to_end", []) + bench.get("per_layer", []):
        unit = entry.get("unit")
        if not isinstance(unit, str) or not UNIT_RE.match(unit):
            problems.append(f"bad unit {unit!r}")
    return problems

#!/usr/bin/env python3
"""Enforce public-contract module docstrings on the pinned contract modules.

The supervised pool, the campaign journal, the cache model, the snoop
filter's sharer map, the memory hierarchy's access walk and bulk
warm-up, the trace-replay fast path, the tracer's recording window,
the cuckoo table's placement and traces, the virtual switch's fused
packets, the cluster layer, the churn
workload engine, the cache-policy seam, and the trace persistence
formats are API that external harnesses build against.  Each of those
modules must open with a module docstring that (a) exists, (b) is
substantial (not a one-line stub), and (c) explicitly states its public
contract: a line containing the phrase ``Public contract`` separating
the stable API from internals.

This is deliberately a *lint*, not a style checker: it pins only the
modules named in ``CONTRACT_MODULES`` and nothing else, so adding a
module here is an explicit decision to promise a stable surface.

Usage:  python scripts/check_docstrings.py [--src SRC_DIR]
Exits non-zero listing every violation, or zero (silent) when clean.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import List

#: Modules (relative to the source root) that must declare their public
#: contract in the module docstring.
CONTRACT_MODULES = (
    "repro/runner/pool.py",
    "repro/runner/journal.py",
    "repro/sim/cache.py",
    "repro/sim/coherence.py",
    "repro/sim/hierarchy.py",
    "repro/sim/replay.py",
    "repro/sim/trace.py",
    "repro/core/accelerator.py",
    "repro/core/isa.py",
    "repro/hashtable/cuckoo.py",
    "repro/hashtable/hashing.py",
    "repro/vswitch/switch.py",
    "repro/cluster/__init__.py",
    "repro/cluster/balancer.py",
    "repro/cluster/cluster.py",
    "repro/cluster/shards.py",
    "repro/faults/shard_plan.py",
    "repro/workloads/__init__.py",
    "repro/workloads/churn.py",
    "repro/classifier/cache_policy.py",
    "repro/traffic/persistence.py",
)

#: The marker phrase the docstring must contain (case-sensitive).
CONTRACT_MARKER = "Public contract"

#: Below this many characters a docstring is a stub, not a contract.
MIN_DOCSTRING_CHARS = 200


def check_module(path: Path) -> List[str]:
    """Lint one module file; returns human-readable violations."""
    problems: List[str] = []
    if not path.exists():
        return [f"{path}: contract module is missing"]
    try:
        tree = ast.parse(path.read_text())
    except SyntaxError as error:
        return [f"{path}: cannot parse ({error})"]
    docstring = ast.get_docstring(tree)
    if not docstring:
        return [f"{path}: no module docstring"]
    if len(docstring) < MIN_DOCSTRING_CHARS:
        problems.append(
            f"{path}: module docstring is a stub "
            f"({len(docstring)} chars < {MIN_DOCSTRING_CHARS})")
    if CONTRACT_MARKER not in docstring:
        problems.append(
            f"{path}: docstring does not state its public contract "
            f"(missing the phrase {CONTRACT_MARKER!r})")
    return problems


def check_tree(src: Path) -> List[str]:
    """Lint every pinned contract module under ``src``."""
    problems: List[str] = []
    for relative in CONTRACT_MODULES:
        problems.extend(check_module(src / relative))
    return problems


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=None,
                        help="source root (default: <repo>/src)")
    args = parser.parse_args(argv)
    src = (Path(args.src) if args.src
           else Path(__file__).resolve().parent.parent / "src")
    problems = check_tree(src)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Enforce the one-directional import layering of the ``repro`` package.

The repo's layers, bottom to top (rank 0 upward)::

    obs < guard < sim < hashtable < classifier < traffic < core < tcam
        < exec < faults < vswitch < nf < workloads < analysis < runner
        < cluster

A module in layer L may import (at module level) only from layers with a
rank <= L.  Upward imports — e.g. ``repro.obs`` importing from
``repro.analysis``, or ``repro.sim`` importing from ``repro.core`` — are
flagged.  Only *module-level* (top-level AST) imports count: a
function-local import is the sanctioned escape hatch for facades such as
``HaloSystem.backend()``, which constructs objects from the layer above
without creating a static upward edge.

``repro.cluster`` is the top layer: it composes whole systems (core),
execution and traffic (exec/traffic) and shard fault plans (faults) into
sharded cluster runs whose shards all run in the calling process, so
everything sits below it.  It imports nothing from ``repro.runner``: an
experiment that sweeps cluster configurations is an ordinary runner work
unit.  The single sanctioned upward edge is ``analysis -> cluster``
(:data:`ALLOWED_UPWARD`): experiments sweep cluster configurations, but
no model layer — sim, core, exec, vswitch, nf — may ever know the
cluster exists.

Some layers additionally restrict who above them may import them at all:
``repro.faults`` is a leaf capability — it may import sim/core/exec, but
of the layers above it only ``analysis``, ``runner`` and ``cluster`` may
depend on it (workload layers such as ``vswitch``/``nf`` must stay
fault-agnostic; fault plans are installed from experiments, examples and
the cluster orchestrator, not from inside the modelled dataplane).
``repro.guard`` is the same kind of leaf: the safety net attaches from
the harness (``sim`` owns the attachment seam, ``runner``/``analysis``
opt campaigns in), never from inside the modelled hardware or workloads
— a cache or NF that imported its own invariant checker would entangle
the model with its auditor.
``repro.workloads`` (churn/attack traffic scenarios) is restricted the
same way: only ``analysis`` and ``runner`` may import it — the modelled
dataplane must never know which scenario is driving it, exactly as a
real switch never imports its traffic generator.

Root modules (``repro/__init__.py``, ``repro/__main__.py``) are exempt:
they are the user-facing aggregation points and may import from any layer.

Usage:  python scripts/check_layering.py [--src SRC_DIR]
Exits non-zero listing every violation, or zero (silent) when clean.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

#: Bottom-to-top layer order; the index is the rank.
LAYERS = (
    "obs",
    "guard",
    "sim",
    "hashtable",
    "classifier",
    "traffic",
    "core",
    "tcam",
    "exec",
    "faults",
    "vswitch",
    "nf",
    "workloads",
    "analysis",
    "runner",
    "cluster",
)
RANK = {name: index for index, name in enumerate(LAYERS)}

#: Sanctioned upward edges: ``(importing layer, imported layer)`` pairs
#: exempt from the rank rule.  Kept deliberately tiny — every entry is a
#: hole in the one-directional story and needs a written justification
#: (see the module docstring).
ALLOWED_UPWARD = {
    ("analysis", "cluster"),
}

#: Layers only *some* higher layers may import: ``{layer: allowed}``.
#: A module above ``layer`` whose own layer is not in ``allowed`` must not
#: import it, even though the rank rule alone would permit the edge.
RESTRICTED_IMPORTERS = {
    "faults": ("analysis", "runner", "cluster"),
    "guard": ("sim", "runner", "analysis"),
    "workloads": ("analysis", "runner"),
}


def module_name(path: Path, src: Path) -> str:
    """Dotted module name of ``path`` relative to ``src``."""
    relative = path.relative_to(src).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of(module: str) -> Optional[str]:
    """The layer a ``repro.*`` module belongs to (None for root/foreign)."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1] if parts[1] in RANK else None


def resolve_import(node: ast.stmt,
                   package_parts: List[str]) -> Iterator[str]:
    """Absolute dotted targets of one module-level import statement.

    ``package_parts`` is the importing module's *package* (for a plain
    module ``a.b.c`` that is ``[a, b]``; for a package's ``__init__`` it
    is the package itself).
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            if node.module:
                yield node.module
            return
        # Relative import: level 1 anchors at the package, each extra
        # level climbs one parent.
        anchor = package_parts[:len(package_parts) - (node.level - 1)]
        if node.module:
            yield ".".join(anchor + node.module.split("."))
        else:
            # ``from . import x, y`` — each name is a submodule of anchor.
            for alias in node.names:
                yield ".".join(anchor + [alias.name])


def is_package_init(path: Path) -> bool:
    return path.name == "__init__.py"


def check_file(path: Path, src: Path) -> List[Tuple[str, int, str, str]]:
    """Violations in one file: (module, lineno, imported, reason)."""
    module = module_name(path, src)
    parts = module.split(".")
    # A package's __init__ resolves relative imports against the package
    # itself; a plain module resolves against its parent package.
    package_parts = parts if is_package_init(path) else parts[:-1]
    layer = layer_of(module)
    if layer is None:
        return []  # root modules (repro/__init__.py, __main__.py) exempt
    rank = RANK[layer]
    violations = []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:  # module level only — nested imports sanctioned
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for target in resolve_import(node, package_parts):
            target_layer = layer_of(target)
            if target_layer is None:
                continue
            if RANK[target_layer] > rank:
                if (layer, target_layer) in ALLOWED_UPWARD:
                    continue
                violations.append((
                    module, node.lineno, target,
                    f"layer '{layer}' (rank {rank}) must not import "
                    f"'{target_layer}' (rank {RANK[target_layer]})"))
                continue
            allowed = RESTRICTED_IMPORTERS.get(target_layer)
            if (allowed is not None and layer != target_layer
                    and RANK[target_layer] < rank and layer not in allowed):
                violations.append((
                    module, node.lineno, target,
                    f"layer '{target_layer}' may only be imported by "
                    f"{', '.join(allowed)} (not '{layer}')"))
    return violations


def check_tree(src: Path) -> List[Tuple[str, int, str, str]]:
    package = src / "repro"
    violations = []
    for path in sorted(package.rglob("*.py")):
        violations.extend(check_file(path, src))
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", default=None,
                        help="source root containing the repro package "
                             "(default: <repo>/src)")
    args = parser.parse_args(argv)
    src = Path(args.src) if args.src else (
        Path(__file__).resolve().parent.parent / "src")
    violations = check_tree(src)
    if violations:
        print(f"layering check FAILED: {len(violations)} upward import(s)")
        for module, lineno, target, reason in violations:
            print(f"  {module}:{lineno}: imports {target} — {reason}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

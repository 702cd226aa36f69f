"""Render a metrics snapshot as a per-component breakdown table.

Used by ``python -m repro report`` and by :meth:`HaloSystem.report`.
Metric names are dotted (``component.sub.metric``); rows are grouped by
their first segment so related metrics read as one block.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tables import format_table


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:,.1f}" if abs(value) >= 10 else f"{value:.2f}"
    return str(value)


def _rows(snapshot: Dict[str, object]) -> List[Tuple[str, ...]]:
    rows: List[Tuple[str, ...]] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        component, _, metric = name.partition(".")
        if isinstance(value, dict):
            # Histogram summary.
            if not value.get("count"):
                continue
            rows.append((component, metric,
                         _fmt(value["count"]),
                         _fmt(value.get("mean", 0.0)),
                         _fmt(value.get("p50", 0.0)),
                         _fmt(value.get("p95", 0.0)),
                         _fmt(value.get("p99", 0.0)),
                         _fmt(value.get("max", 0.0))))
        else:
            rows.append((component, metric, _fmt(value), "", "", "", "", ""))
    return rows


def render_metrics_report(snapshot: Dict[str, object],
                          title: str = "per-component metrics") -> str:
    """An aligned table over every non-empty metric in ``snapshot``."""
    rows = _rows(snapshot)
    if not rows:
        return f"{title}: no metrics recorded"
    return format_table(
        ["component", "metric", "count/value", "mean", "p50", "p95", "p99",
         "max"],
        rows, title=title)


def render_component_totals(snapshot: Dict[str, object]) -> str:
    """One line per top-level component: how many metrics it published."""
    per_component: Dict[str, int] = {}
    for name, value in snapshot.items():
        if isinstance(value, dict) and not value.get("count"):
            continue
        component = name.partition(".")[0]
        per_component[component] = per_component.get(component, 0) + 1
    lines = [f"  {component}: {count} metrics"
             for component, count in sorted(per_component.items())]
    return "\n".join(["components:"] + lines)

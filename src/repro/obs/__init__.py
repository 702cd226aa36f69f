"""``repro.obs`` — the observability layer.

One :class:`Observability` object per simulated machine bundles:

* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges,
  and fixed-bucket latency histograms (p50/p95/p99 queries);
* :class:`~repro.obs.tracing.TraceRecorder` — per-query span trees
  (``query → distributor → CHA slice → cache level / DRAM → reply``) with
  cycle timestamps.

Observability is always on.  Recording never feeds back into the
model: no component reads a metric or a span to decide what to simulate.
"""

from __future__ import annotations

import json
from typing import Dict

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_HISTOGRAM,
)
from .tracing import NULL_SPAN, Span, TraceRecorder, validate_nesting
from .report import render_component_totals, render_metrics_report
from .tables import format_table

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Span",
    "TraceRecorder", "Observability",
    "DEFAULT_LATENCY_BUCKETS", "NULL_COUNTER", "NULL_HISTOGRAM",
    "NULL_SPAN", "validate_nesting",
    "render_metrics_report", "render_component_totals", "format_table",
]


class Observability:
    """Metrics + tracing for one simulated machine."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.trace = TraceRecorder()

    def export(self) -> Dict[str, object]:
        """The full observable state: metrics snapshot + span trees."""
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.trace.to_dicts(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.export(), indent=indent, sort_keys=True,
                          default=float)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

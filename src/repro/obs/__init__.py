"""``repro.obs`` — the observability layer.

One :class:`Observability` object per simulated machine bundles:

* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges,
  and fixed-bucket latency histograms (p50/p95/p99 queries);
* :class:`~repro.obs.tracing.TraceRecorder` — per-query span trees
  (``query → distributor → CHA slice → cache level / DRAM → reply``) with
  cycle timestamps.

Disabling observability (``HaloSystem(observability=False)`` or
``REPRO_OBS=0``) swaps every handle for a shared null object: the
instrumented hot paths still run, but record nothing — and, by
construction, never perturb simulated time, so experiment outputs are
identical either way (a regression test holds this invariant).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from .tracing import NULL_SPAN, Span, TraceRecorder, validate_nesting
from .report import render_component_totals, render_metrics_report
from .tables import format_table

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Span",
    "TraceRecorder", "Observability", "default_enabled",
    "DEFAULT_LATENCY_BUCKETS", "NULL_COUNTER", "NULL_GAUGE",
    "NULL_HISTOGRAM", "NULL_SPAN", "validate_nesting",
    "render_metrics_report", "render_component_totals", "format_table",
]


def default_enabled() -> bool:
    """Observability defaults on; ``REPRO_OBS=0`` (or ``false``/``off``)
    turns it off process-wide."""
    return os.environ.get("REPRO_OBS", "1").lower() not in (
        "0", "false", "off", "no")


class Observability:
    """Metrics + tracing for one simulated machine."""

    def __init__(self, enabled: Optional[bool] = None) -> None:
        if enabled is None:
            enabled = default_enabled()
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.trace = TraceRecorder(enabled=enabled)

    def export(self) -> Dict[str, object]:
        """The full observable state: metrics snapshot + span trees."""
        return {
            "enabled": self.enabled,
            "metrics": self.metrics.snapshot(),
            "spans": self.trace.to_dicts(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.export(), indent=indent, sort_keys=True,
                          default=float)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

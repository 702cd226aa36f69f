"""Rendering metric snapshots as per-component tables."""

from repro.obs import (
    MetricsRegistry,
    Observability,
    render_component_totals,
    render_metrics_report,
)


def build_snapshot():
    registry = MetricsRegistry()
    registry.counter("halo.queries").inc(12)
    registry.gauge("halo.estimate").set(3.25)
    histogram = registry.histogram("mem.latency")
    for value in (4.0, 8.0, 120.0):
        histogram.observe(value)
    registry.histogram("mem.unused")   # empty: should not appear
    return registry.snapshot()


def test_report_groups_by_component_and_skips_empty():
    text = render_metrics_report(build_snapshot(), title="demo")
    assert "demo" in text
    lines = text.splitlines()
    assert any(line.startswith("halo") and "queries" in line
               for line in lines)
    assert any(line.startswith("mem") and "latency" in line
               for line in lines)
    assert "unused" not in text


def test_report_histogram_row_has_percentiles():
    text = render_metrics_report(build_snapshot())
    row = next(line for line in text.splitlines() if "latency" in line)
    # count, then mean/p50/p95/p99/max columns are populated
    assert "3" in row and "120" in row


def test_empty_snapshot_renders_hint():
    assert "no metrics recorded" in render_metrics_report({})


def test_component_totals_counts_metrics():
    text = render_component_totals(build_snapshot())
    assert "halo: 2 metrics" in text
    assert "mem: 1 metrics" in text


def test_observability_export_shape(tmp_path):
    obs = Observability()
    obs.metrics.counter("c").inc()
    obs.trace.root("q", 0.0).finish(1.0)
    export = obs.export()
    assert export.keys() == {"metrics", "spans"}
    assert export["metrics"]["c"] == 1
    assert export["spans"][0]["name"] == "q"
    path = tmp_path / "obs.json"
    obs.write_json(str(path))
    assert path.exists() and path.read_text().startswith("{")

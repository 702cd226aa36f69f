"""Breakdown analysis helpers: stage order, per-packet scaling, rendering.

Used by the Figure 3 (per-packet pipeline) and Figure 10 (per-lookup
latency) reproductions.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..sim.stats import Breakdown

#: Canonical stage order for the Figure 3 pipeline breakdown.
FIG3_STAGES = ["packet_io", "preprocess", "emc_lookup", "megaflow_lookup",
               "openflow_lookup", "others"]

#: Canonical component order for the Figure 10 lookup breakdown.
FIG10_COMPONENTS = ["compute", "memory", "locking"]


def per_packet(breakdown: Breakdown, packets: int) -> Breakdown:
    """Scale an accumulated breakdown to per-packet averages."""
    if packets <= 0:
        return Breakdown()
    return breakdown.scaled(1.0 / packets)


def render_stacked(rows: Dict[str, Breakdown], order: Sequence[str],
                   title: str = "") -> str:
    """A stacked-bar-as-text rendering: one row per configuration."""
    lines = []
    if title:
        lines.append(title)
    header = ["config"] + list(order) + ["total"]
    widths = [max(18, len(header[0]))] + [
        max(10, len(name)) for name in header[1:]]
    lines.append("  ".join(name.ljust(width)
                           for name, width in zip(header, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for name, breakdown in rows.items():
        cells = [name.ljust(widths[0])]
        for index, stage in enumerate(order):
            cells.append(f"{breakdown[stage]:.0f}".ljust(widths[index + 1]))
        cells.append(f"{breakdown.total:.0f}".ljust(widths[-1]))
        lines.append("  ".join(cells))
    return "\n".join(lines)

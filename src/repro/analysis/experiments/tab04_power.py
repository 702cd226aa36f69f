"""Table 4 — power consumption and area of the hardware solutions.

Paper result: TCAM cost explodes with capacity (1 MB: 9.343 tiles,
26.7 W static, 84.82 nJ/query) while one HALO accelerator costs 0.012
tiles, 97.2 mW, 1.76 nJ/query — up to 48.2× more energy-efficient than
TCAM at saturating query rates.  SRAM-TCAM saves ~45% power / ~57% area
over TCAM but remains far above HALO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...core.power import PowerEnvelope, halo_envelope
from ...tcam.power import (
    TCAM_TABLE4,
    halo_vs_tcam_efficiency,
    sram_tcam_envelope,
    tcam_envelope,
)
from ..reporting import PaperCheck, format_table, render_checks

KB = 1024


@dataclass
class Tab4Result:
    envelopes: List[PowerEnvelope]
    halo: PowerEnvelope
    efficiency_vs_1mb_tcam: float


def run() -> Tab4Result:
    capacities = sorted(TCAM_TABLE4)
    envelopes = [tcam_envelope(c) for c in capacities]
    envelopes += [sram_tcam_envelope(c) for c in capacities]
    return Tab4Result(
        envelopes=envelopes,
        halo=halo_envelope(1),
        efficiency_vs_1mb_tcam=halo_vs_tcam_efficiency(1024 * KB),
    )


def report(result: Tab4Result) -> str:
    rows = [(e.name, e.area_tiles, e.static_milliwatts,
             e.dynamic_nanojoule_per_query) for e in result.envelopes]
    rows.append((result.halo.name, result.halo.area_tiles,
                 result.halo.static_milliwatts,
                 result.halo.dynamic_nanojoule_per_query))
    table = format_table(
        ["solution", "area/tiles", "static/mW", "dynamic nJ/query"], rows,
        title="Table 4 — power and area of hardware flow-classification")

    tcam_1mb = tcam_envelope(1024 * KB)
    checks = [
        PaperCheck("TCAM 1MB", "9.343 tiles / 26733.1 mW / 84.82 nJ",
                   f"{tcam_1mb.area_tiles} tiles / "
                   f"{tcam_1mb.static_milliwatts} mW / "
                   f"{tcam_1mb.dynamic_nanojoule_per_query} nJ",
                   holds=tcam_1mb.area_tiles == 9.343),
        PaperCheck("HALO accelerator", "0.012 tiles / 97.2 mW / 1.76 nJ",
                   f"{result.halo.area_tiles} tiles / "
                   f"{result.halo.static_milliwatts} mW / "
                   f"{result.halo.dynamic_nanojoule_per_query} nJ",
                   holds=result.halo.area_tiles == 0.012),
        PaperCheck("HALO vs TCAM energy efficiency", "up to 48.2x",
                   f"{result.efficiency_vs_1mb_tcam:.1f}x",
                   holds=abs(result.efficiency_vs_1mb_tcam - 48.2) < 0.1),
    ]
    return table + "\n\n" + render_checks("Table 4", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "tab04",
    "artifact": "Table 4",
    "slug": "tab04_power_area",
    "title": "power and area (TCAM vs HALO)",
    "grid": [("default", {}, {})],
}


def bench_run(label, params, seed):
    del label, params, seed  # the analytic model has no knobs
    return run()


def bench_report(payloads):
    return report(payloads["default"])

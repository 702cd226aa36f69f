"""Power and area models for the hardware comparators (paper Table 4).

The anchor points reproduce the paper's Table 4 exactly (McPAT/CACTI-derived
for a 22 nm process); other capacities interpolate in log-log space, which
matches the Agrawal–Sherwood TCAM model's power-law scaling.

=========  ===========  ============  ==================
Capacity   Area / tiles Static / mW   Dynamic / (nJ/query)
=========  ===========  ============  ==================
1 KB       0.001        71.1          0.04
10 KB      0.066        235.3         0.37
100 KB     1.044        3850.5        13.84
1 MB       9.343        26733.1       84.82
HALO       0.012        97.2          1.76
=========  ===========  ============  ==================
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..core.power import PowerEnvelope, halo_envelope

KB = 1024

#: SRAM-TCAM savings vs a native TCAM of the same capacity (paper §6.4).
POWER_SAVING = 0.45
AREA_SAVING = 0.57

#: capacity_bytes -> (area_tiles, static_mW, dynamic_nJ_per_query)
TCAM_TABLE4: Dict[int, Tuple[float, float, float]] = {
    1 * KB: (0.001, 71.1, 0.04),
    10 * KB: (0.066, 235.3, 0.37),
    100 * KB: (1.044, 3850.5, 13.84),
    1024 * KB: (9.343, 26733.1, 84.82),
}

#: Bytes per 5-tuple rule — "1MB TCAM ... about 100K 5-tuple rules" (§6.4).
BYTES_PER_5TUPLE_RULE = 1024 * KB / 100_000


def _loglog_interp(capacity: int, column: int) -> float:
    """Log-log interpolation/extrapolation through the Table 4 anchors."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    points: List[Tuple[float, float]] = sorted(
        (math.log(size), math.log(values[column]))
        for size, values in TCAM_TABLE4.items())
    x = math.log(capacity)
    if x <= points[0][0]:
        (x0, y0), (x1, y1) = points[0], points[1]
    elif x >= points[-1][0]:
        (x0, y0), (x1, y1) = points[-2], points[-1]
    else:
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if x0 <= x <= x1:
                break
    slope = (y1 - y0) / (x1 - x0)
    return math.exp(y0 + slope * (x - x0))


def tcam_envelope(capacity_bytes: int) -> PowerEnvelope:
    """Power/area for a native TCAM of the given capacity."""
    exact = TCAM_TABLE4.get(capacity_bytes)
    if exact is not None:
        area, static, dynamic = exact
    else:
        area = _loglog_interp(capacity_bytes, 0)
        static = _loglog_interp(capacity_bytes, 1)
        dynamic = _loglog_interp(capacity_bytes, 2)
    return PowerEnvelope(
        name=f"TCAM {capacity_bytes // KB}KB",
        static_milliwatts=static,
        dynamic_nanojoule_per_query=dynamic,
        area_tiles=area,
    )


def sram_tcam_envelope(capacity_bytes: int) -> PowerEnvelope:
    """SRAM-TCAM: ~45% less power, ~57% less area than native TCAM."""
    base = tcam_envelope(capacity_bytes)
    return PowerEnvelope(
        name=f"SRAM-TCAM {capacity_bytes // KB}KB",
        static_milliwatts=base.static_milliwatts * (1 - POWER_SAVING),
        dynamic_nanojoule_per_query=(base.dynamic_nanojoule_per_query
                                     * (1 - POWER_SAVING)),
        area_tiles=base.area_tiles * (1 - AREA_SAVING),
    )


def capacity_for_rules(num_5tuple_rules: int) -> int:
    """TCAM bytes needed to hold the given number of 5-tuple rules."""
    return int(math.ceil(num_5tuple_rules * BYTES_PER_5TUPLE_RULE))


def halo_vs_tcam_efficiency(capacity_bytes: int,
                            queries_per_second: float = float("inf"),
                            accelerators: int = 1) -> float:
    """Energy-per-query ratio TCAM/HALO (>1 means HALO more efficient).

    At saturating query rates static power amortises away and the ratio is
    purely dynamic: for 1 MB TCAM vs one HALO accelerator it is
    84.82 / 1.76 = 48.2 — the paper's headline "up to 48.2× more
    energy-efficient".  At finite query rates TCAM's enormous static power
    makes the gap larger still.
    """
    halo = halo_envelope(accelerators)
    tcam = tcam_envelope(capacity_bytes)
    return (tcam.energy_per_query_nj(queries_per_second)
            / halo.energy_per_query_nj(queries_per_second))

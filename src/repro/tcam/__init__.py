"""The functional TCAM comparator, TCAM and SRAM-TCAM search latencies,
and their Table-4 power/area figures."""

from .power import (
    BYTES_PER_5TUPLE_RULE,
    TCAM_TABLE4,
    capacity_for_rules,
    halo_vs_tcam_efficiency,
    sram_tcam_envelope,
    tcam_envelope,
)
from .tcam import (
    SRAM_TCAM_SEARCH_CYCLES,
    TCAM_SEARCH_CYCLES,
    Tcam,
    TcamMatch,
    TernaryRule,
    exact_rule,
)

__all__ = [
    "BYTES_PER_5TUPLE_RULE",
    "SRAM_TCAM_SEARCH_CYCLES",
    "TCAM_SEARCH_CYCLES",
    "TCAM_TABLE4",
    "Tcam",
    "TcamMatch",
    "TernaryRule",
    "capacity_for_rules",
    "exact_rule",
    "halo_vs_tcam_efficiency",
    "sram_tcam_envelope",
    "tcam_envelope",
]

"""Analysis and reporting: breakdown accounting, table rendering, and the
per-figure experiment runners."""

from .breakdown import (
    FIG3_STAGES,
    FIG10_COMPONENTS,
    per_packet,
    render_stacked,
)
from .reporting import (
    PaperCheck,
    format_table,
    percent_str,
    ratio_str,
    render_checks,
)

__all__ = [
    "FIG10_COMPONENTS",
    "FIG3_STAGES",
    "PaperCheck",
    "format_table",
    "per_packet",
    "percent_str",
    "ratio_str",
    "render_checks",
    "render_stacked",
]

"""Plain-text reporting: aligned tables and paper-vs-measured rows.

Every experiment prints its figure/table through these helpers so the
regenerated rows line up with what the paper reports; its paper claims
are :class:`PaperCheck` lines.  The table formatter itself lives in
:mod:`repro.obs.tables` (the bottom layer) and is re-exported here for
the experiments' convenience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..obs.tables import _cell, format_table

__all__ = [
    "PaperCheck",
    "format_table",
    "percent_str",
    "ratio_str",
    "render_checks",
]


@dataclass
class PaperCheck:
    """One paper-vs-measured comparison line."""

    label: str
    paper: str
    measured: str
    holds: Optional[bool] = None

    def render(self) -> str:
        status = "" if self.holds is None else ("  [shape holds]"
                                                if self.holds
                                                else "  [DIVERGES]")
        return (f"  {self.label}: paper {self.paper} | "
                f"measured {self.measured}{status}")


def render_checks(title: str, checks: Iterable[PaperCheck]) -> str:
    lines = [f"paper-vs-measured — {title}"]
    lines.extend(check.render() for check in checks)
    return "\n".join(lines)


def ratio_str(value: float) -> str:
    return f"{value:.2f}x"


def percent_str(value: float) -> str:
    return f"{value * 100:.1f}%"

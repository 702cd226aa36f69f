"""Statistics utilities: breakdowns, running aggregates, rate helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict


class Breakdown:
    """Named additive components of a total (cycles, instructions, energy).

    Used for Figure 3 (per-packet cycle breakdown), Figure 10 (lookup latency
    breakdown) and Table 1 (instruction category breakdown).
    """

    def __init__(self, parts: Dict[str, float] = None) -> None:
        self.parts: Dict[str, float] = dict(parts or {})

    def add(self, name: str, amount: float) -> None:
        self.parts[name] = self.parts.get(name, 0.0) + amount

    def __getitem__(self, name: str) -> float:
        return self.parts.get(name, 0.0)

    def __iter__(self):
        return iter(self.parts.items())

    @property
    def total(self) -> float:
        return sum(self.parts.values())

    def fraction(self, name: str) -> float:
        total = self.total
        return self.parts.get(name, 0.0) / total if total else 0.0

    def fractions(self) -> Dict[str, float]:
        """Per-part shares of the total.

        A zero (or empty) total yields all-zero fractions, matching
        :meth:`fraction` — the two used to disagree (0 vs divide-by-1),
        which only coincided because parts were never negative-summing.
        """
        total = self.total
        if not total:
            return {name: 0.0 for name in self.parts}
        return {name: value / total for name, value in self.parts.items()}

    def scaled(self, factor: float) -> "Breakdown":
        return Breakdown({k: v * factor for k, v in self.parts.items()})

    def merged(self, other: "Breakdown") -> "Breakdown":
        result = Breakdown(self.parts)
        for name, value in other.parts.items():
            result.add(name, value)
        return result

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.1f}" for k, v in sorted(self.parts.items()))
        return f"Breakdown({inner})"


@dataclass
class RunningStats:
    """Streaming mean/variance/extremes (Welford)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self.mean * self.count


def throughput_mops(operations: int, cycles: float,
                    frequency_ghz: float = 2.1) -> float:
    """Million operations per second at the given clock."""
    if cycles <= 0:
        return 0.0
    seconds = cycles / (frequency_ghz * 1e9)
    return operations / seconds / 1e6


def mpkl(misses: int, loads: int) -> float:
    """Misses per thousand retired loads (Figure 4's metric)."""
    return 1000.0 * misses / loads if loads else 0.0

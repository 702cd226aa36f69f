"""Declarative fault schedules.

A :class:`FaultPlan` is data, not behaviour: an immutable set of
:class:`FaultWindow` entries plus one seed.  The
:class:`~repro.faults.injector.FaultInjector` interprets it against a live
system; keeping the two apart means a plan can be printed, serialised into
experiment parameters, and compared across runs.

Windows support *duty cycling*: a window with ``period`` fires for the
first ``duty`` fraction of every period inside ``[start, end)``.  The
:meth:`FaultPlan.degradation` preset leans on this to guarantee monotone
coverage — raising ``intensity`` only widens each burst, so every cycle
faulted at intensity *x* is also faulted at every intensity above *x*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from ..sim.interconnect import mix64

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: :meth:`FaultPlan.degradation` magnitudes at intensity 1: accelerator
#: stall cycles, extra DRAM cycles and NoC drop probability.
DEGRADATION_STALL_CYCLES = 400.0
DEGRADATION_DRAM_EXTRA = 300.0
DEGRADATION_NOC_DROP_PROBABILITY = 0.05


class SplitMix64:
    """A tiny, dependency-free deterministic RNG (SplitMix64).

    The fault subsystem cannot use ``random``/``numpy`` global state — fault
    decisions must replay bit-identically and must not perturb any other
    consumer's stream.  Each draw steps the state by the golden gamma and
    finalises it with :func:`repro.sim.interconnect.mix64`, the mixer the
    interconnect uses for slice hashing.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        return mix64(self.state)

    def uniform(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, low: int, high: int) -> int:
        """An integer in [low, high] (inclusive)."""
        if high < low:
            raise ValueError("empty randint range")
        return low + self.next_u64() % (high - low + 1)

    def fork(self, tag: int) -> "SplitMix64":
        """An independent child stream keyed by ``tag`` (order-free)."""
        child = SplitMix64((self.state ^ (tag * 0x9E3779B97F4A7C15)) & _MASK64)
        child.next_u64()
        return child


class FaultKind(enum.Enum):
    """The fault classes the injector knows how to realise."""

    ACCEL_STALL = "accel_stall"          # extra service delay per query
    ACCEL_OUTAGE = "accel_outage"        # slice answers nothing until window ends
    QUEUE_SATURATION = "queue_saturation"  # phantom queries occupy scoreboard slots
    LOCK_HOLD = "lock_hold"              # lock bit stuck on hot lines (livelock)
    DRAM_SPIKE = "dram_spike"            # extra DRAM latency per access
    NOC_DROP = "noc_drop"                # message lost, retransmitted
    NOC_DUPLICATE = "noc_duplicate"      # message delivered twice


@dataclass(frozen=True)
class FaultWindow:
    """One fault, active over ``[start, end)`` simulated cycles.

    ``slice_id`` targets one LLC slice/CHA (None = machine-wide).
    ``magnitude`` is extra cycles (stalls/spikes) or slot count
    (queue saturation).  ``probability`` gates per-event faults (DRAM
    spikes, NoC drops/duplicates); scheduled faults ignore it.
    ``period``/``duty`` duty-cycle the window; ``lines`` names the locked
    addresses for :attr:`FaultKind.LOCK_HOLD`.
    """

    kind: FaultKind
    start: float
    end: float
    slice_id: Optional[int] = None
    magnitude: float = 0.0
    probability: float = 1.0
    period: Optional[float] = None
    duty: float = 1.0
    lines: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty fault window [{self.start}, {self.end})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        if self.period is not None and self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError(f"duty {self.duty} outside [0, 1]")

    def covers_slice(self, slice_id: int) -> bool:
        return self.slice_id is None or self.slice_id == slice_id

    def active(self, now: float) -> bool:
        """Is the fault live at cycle ``now``?"""
        if not self.start <= now < self.end:
            return False
        if self.period is None:
            return True
        return (now - self.start) % self.period < self.duty * self.period

    def remaining(self, now: float) -> float:
        """Cycles until the current active burst switches off (0 if idle)."""
        if not self.active(now):
            return 0.0
        if self.period is None:
            return self.end - now
        elapsed = now - self.start
        burst_end = (self.start
                     + (elapsed // self.period) * self.period
                     + self.duty * self.period)
        return min(burst_end, self.end) - now


@dataclass(frozen=True)
class FaultPlan:
    """An immutable fault schedule + the seed driving probabilistic faults."""

    windows: Tuple[FaultWindow, ...] = ()
    seed: int = 0xFA17

    def __post_init__(self) -> None:
        # Accept any iterable of windows but store a tuple (hashable, frozen).
        if not isinstance(self.windows, tuple):
            object.__setattr__(self, "windows", tuple(self.windows))

    def __bool__(self) -> bool:
        return bool(self.windows)

    def rng(self) -> SplitMix64:
        return SplitMix64(self.seed)

    def of_kind(self, *kinds: FaultKind) -> Tuple[FaultWindow, ...]:
        return tuple(w for w in self.windows if w.kind in kinds)

    def active(self, kind: FaultKind, now: float,
               slice_id: Optional[int] = None) -> Iterator[FaultWindow]:
        """Windows of ``kind`` live at ``now`` (optionally slice-filtered)."""
        for window in self.windows:
            if window.kind is not kind or not window.active(now):
                continue
            if slice_id is not None and not window.covers_slice(slice_id):
                continue
            yield window

    def describe(self) -> str:
        if not self.windows:
            return f"FaultPlan(empty, seed={self.seed:#x})"
        lines = [f"FaultPlan(seed={self.seed:#x}, "
                 f"{len(self.windows)} window(s)):"]
        for window in self.windows:
            where = ("all slices" if window.slice_id is None
                     else f"slice {window.slice_id}")
            duty = ""
            if window.period is not None:
                duty = (f", duty {window.duty:.0%} of "
                        f"{window.period:.0f}-cycle periods")
            lines.append(
                f"  {window.kind.value:>16} [{window.start:>8.0f}, "
                f"{window.end:>8.0f}) {where}, magnitude "
                f"{window.magnitude:g}, p={window.probability:g}{duty}")
        return "\n".join(lines)

    # -- presets ----------------------------------------------------------
    @classmethod
    def slice_outage(cls, slice_id: int, start: float, end: float,
                     seed: int = 0xFA17) -> "FaultPlan":
        """One slice's accelerator goes dark over ``[start, end)``.

        The canonical degraded-hardware scenario: queries admitted on the
        slice stall until the window closes, so its busy bit rises and
        bounded-wait clients time out onto their fallback path.
        """
        return cls(windows=(FaultWindow(
            kind=FaultKind.ACCEL_OUTAGE, start=start, end=end,
            slice_id=slice_id), ), seed=seed)

    @classmethod
    def degradation(cls, intensity: float, seed: int = 0xFA17,
                    start: float = 0.0, end: float = 10_000_000.0,
                    period: float = 4096.0) -> "FaultPlan":
        """A machine-wide fault mix whose coverage scales with ``intensity``.

        ``intensity`` in [0, 1]: 0 → an empty plan (healthy machine); 1 →
        accelerator stalls and DRAM spikes active continuously plus NoC
        drops at full probability.  Coverage is duty-cycled so it nests:
        every faulted cycle at intensity *x* is faulted at *y > x* too,
        and magnitudes scale linearly — which makes sustained throughput
        monotone non-increasing in intensity by construction (the
        ``degradation_sweep`` experiment asserts this).
        """
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity {intensity} outside [0, 1]")
        if intensity == 0.0:
            return cls(windows=(), seed=seed)
        windows = (
            FaultWindow(kind=FaultKind.ACCEL_STALL, start=start, end=end,
                        magnitude=DEGRADATION_STALL_CYCLES * intensity,
                        period=period, duty=intensity),
            FaultWindow(kind=FaultKind.DRAM_SPIKE, start=start, end=end,
                        magnitude=DEGRADATION_DRAM_EXTRA * intensity,
                        period=period, duty=intensity),
            FaultWindow(kind=FaultKind.NOC_DROP, start=start, end=end,
                        probability=DEGRADATION_NOC_DROP_PROBABILITY
                        * intensity),
        )
        return cls(windows=windows, seed=seed)

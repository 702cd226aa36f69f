"""The streaming churn engine: phase-scripted flow lifecycles composed
into lazily generated lookup streams.

A :class:`ChurnSpec` scripts a scenario — arrival process (Poisson or
2-state MMPP), Pareto flow sizes, Zipf packet skew over the live flows,
optional duty-cycled SYN-flood windows, optional diurnal rate curve —
and a :class:`ChurnEngine` turns it into an iterator of
:class:`~repro.classifier.flow.FiveTuple` packets.

Public contract: ``ChurnEngine(spec).packets(n)`` is a *generator* —
packets are derived on demand from integer flow ids
(:func:`~repro.classifier.flow.make_flow`), so memory is bounded by the
number of *concurrently live* flows (``spec.max_live``), never by the
total flow population: a million-flow, hundred-million-packet scenario
streams in a few megabytes.  Streams are seed-deterministic: equal specs
yield bit-identical packet sequences, on any host, with or without
numpy.  ``ChurnStats`` (arrivals/departures/peak_live/syn_packets) is
updated as the stream is consumed.  The classmethod presets
(``steady``/``high_churn``/``syn_flood``) are the scenarios the
``cache_churn`` experiment and the ``emc_churn`` end-to-end workload
sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..classifier.flow import FiveTuple, PROTO_TCP, make_flow
from .lifecycle import (MmppArrivals, ParetoSizes, PoissonArrivals,
                        ZipfSelector, fork_rng)
from .phases import DiurnalCurve, PhaseWindow

#: Flow-id bit reserved for attack traffic, so SYN-flood sources never
#: collide with legitimate flow ids.
_ATTACK_ID_BASE = 1 << 30


@dataclass(frozen=True)
class ChurnSpec:
    """One scripted churn scenario (all parameters in workload ticks)."""

    seed: int = 1
    #: Mean legitimate flow arrivals per tick (Poisson, or the MMPP
    #: quiet-state rate when ``burst_rate`` is set).
    arrival_rate: float = 2.0
    #: MMPP burst-state arrival rate; 0 disables the MMPP and arrivals
    #: are plain Poisson.
    burst_rate: float = 0.0
    mean_quiet_ticks: float = 512.0
    mean_burst_ticks: float = 128.0
    #: Heavy-tail flow sizes (packets).
    pareto_alpha: float = 1.2
    min_packets: int = 1
    max_packets: int = 10_000
    #: Packet skew across live flows (0 = uniform).
    zipf_s: float = 1.0
    #: Bound on concurrently live flows — and on engine memory.
    max_live: int = 100_000
    #: Destination service groups (one wildcard rule per group covers
    #: all its flows, the paper's many-flows-few-rules shape).
    groups: int = 8
    #: Duty-cycled SYN-flood windows; empty = no attack phases.
    syn_flood: Tuple[PhaseWindow, ...] = ()
    #: Mean SYN packets per tick while a flood window is active.
    syn_rate: float = 0.0
    diurnal: Optional[DiurnalCurve] = None

    def __post_init__(self) -> None:
        # A NaN slips past every comparison below, and a non-finite rate
        # or dwell time stalls or floods the stream instead of failing.
        for name in ("arrival_rate", "burst_rate", "syn_rate",
                     "mean_quiet_ticks", "mean_burst_ticks", "pareto_alpha",
                     "zipf_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(
                    f"ChurnSpec.{name} must be finite, got {value!r}")
        if self.burst_rate < 0:
            raise ValueError(
                f"ChurnSpec.burst_rate must be >= 0 (0 disables the MMPP), "
                f"got {self.burst_rate!r}")
        if self.burst_rate > 0:
            # The MMPP's dwell times are read only when it is on.
            for name in ("mean_quiet_ticks", "mean_burst_ticks"):
                value = getattr(self, name)
                if value <= 0:
                    raise ValueError(
                        f"ChurnSpec.{name} must be > 0 when burst_rate is "
                        f"set, got {value!r}")
        if self.arrival_rate <= 0:
            raise ValueError(
                f"ChurnSpec.arrival_rate must be > 0, "
                f"got {self.arrival_rate!r}")
        if self.pareto_alpha <= 0:
            raise ValueError(
                f"ChurnSpec.pareto_alpha must be > 0, "
                f"got {self.pareto_alpha!r}")
        if self.min_packets < 1:
            raise ValueError(
                f"ChurnSpec.min_packets must be >= 1, "
                f"got {self.min_packets!r}")
        if self.max_packets < self.min_packets:
            raise ValueError(
                f"ChurnSpec.max_packets must be >= min_packets "
                f"({self.min_packets!r}), got {self.max_packets!r}")
        if self.zipf_s < 0:
            raise ValueError(
                f"ChurnSpec.zipf_s must be >= 0 (0 is uniform), "
                f"got {self.zipf_s!r}")
        if self.max_live < 1:
            raise ValueError(
                f"ChurnSpec.max_live must be >= 1, got {self.max_live!r}")
        if self.groups < 1:
            raise ValueError(
                f"ChurnSpec.groups must be >= 1, got {self.groups!r}")
        if self.syn_rate < 0:
            raise ValueError(
                f"ChurnSpec.syn_rate must be >= 0, got {self.syn_rate!r}")

    # -- scenario presets (shared by the experiment, bench, and tests) -----
    @classmethod
    def steady(cls, seed: int = 1) -> "ChurnSpec":
        """Long-lived flows, mild churn: the regime EMCs are built for."""
        return cls(seed=seed, arrival_rate=0.05, pareto_alpha=1.1,
                   min_packets=64, max_packets=50_000, zipf_s=1.1,
                   max_live=4096)

    @classmethod
    def high_churn(cls, seed: int = 1) -> "ChurnSpec":
        """Million-flow-scale churn: short flows arriving in MMPP bursts
        under Zipf skew — the EMC-thrashing regime."""
        return cls(seed=seed, arrival_rate=2.0, burst_rate=8.0,
                   mean_quiet_ticks=256.0, mean_burst_ticks=64.0,
                   pareto_alpha=1.4, min_packets=1, max_packets=512,
                   zipf_s=1.5, max_live=20_000)

    @classmethod
    def syn_flood(cls, seed: int = 1) -> "ChurnSpec":
        """High churn plus duty-cycled SYN-flood waves and a diurnal
        swing: every attack packet is a one-packet flow aimed at the
        cache."""
        return cls(seed=seed, arrival_rate=2.0, burst_rate=8.0,
                   pareto_alpha=1.3, min_packets=1, max_packets=1024,
                   zipf_s=1.4, max_live=20_000,
                   syn_flood=(PhaseWindow(start=200.0, period=400.0,
                                          duty=0.25),),
                   syn_rate=6.0,
                   diurnal=DiurnalCurve(period=5_000.0, low=0.5, high=1.5))


@dataclass
class ChurnStats:
    """Streaming counters, updated as packets are drawn."""

    packets: int = 0
    syn_packets: int = 0
    arrivals: int = 0
    departures: int = 0
    truncated_arrivals: int = 0
    peak_live: int = 0

    @property
    def syn_fraction(self) -> float:
        return self.syn_packets / self.packets if self.packets else 0.0


class ChurnEngine:
    """Streams a :class:`ChurnSpec` scenario as lazy packet iterators."""

    def __init__(self, spec: ChurnSpec) -> None:
        self.spec = spec
        self.stats = ChurnStats()
        self.now = 0.0
        self._next_id = 0
        self._next_syn = 0
        # Live flows, banded by size class (bit length of the sampled
        # flow size).  Zipf ranks run across bands from elephants down to
        # mice, so popularity is flow-intrinsic: the biggest live flows
        # are the stable hot set, one-packet mice sit in the cold tail.
        self._bands: Dict[int, List[int]] = {}
        self._live_count = 0
        self._remaining: Dict[int, int] = {}  # flow id -> packets left
        if spec.burst_rate > 0:
            self._arrivals = MmppArrivals(
                spec.arrival_rate, spec.burst_rate, spec.mean_quiet_ticks,
                spec.mean_burst_ticks, fork_rng(spec.seed, "arrivals"))
        else:
            self._arrivals = PoissonArrivals(
                spec.arrival_rate, fork_rng(spec.seed, "arrivals"))
        self._sizes = ParetoSizes(spec.pareto_alpha, spec.min_packets,
                                  spec.max_packets,
                                  fork_rng(spec.seed, "sizes"))
        self._select = ZipfSelector(spec.zipf_s, fork_rng(spec.seed, "pick"))
        self._syn = PoissonArrivals(spec.syn_rate,
                                    fork_rng(spec.seed, "syn"))

    @property
    def live_flows(self) -> int:
        return self._live_count

    def _admit_arrivals(self, multiplier: float) -> None:
        for _ in range(self._arrivals.count(multiplier)):
            size = self._sizes.sample()
            if self._live_count >= self.spec.max_live:
                self.stats.truncated_arrivals += 1
                continue
            flow_id = self._next_id
            self._next_id += 1
            self._bands.setdefault(size.bit_length(), []).append(flow_id)
            self._live_count += 1
            self._remaining[flow_id] = size
            self.stats.arrivals += 1
        if self._live_count > self.stats.peak_live:
            self.stats.peak_live = self._live_count

    def _pick_live(self) -> Tuple[int, int, int]:
        """Zipf-pick one live flow: (flow id, band key, index in band)."""
        rank = self._select.pick(self._live_count)
        for band_key in sorted(self._bands, reverse=True):
            band = self._bands[band_key]
            if rank < len(band):
                return band[rank], band_key, rank
            rank -= len(band)
        band_key = min(self._bands)
        band = self._bands[band_key]
        return band[-1], band_key, len(band) - 1

    def _syn_active(self) -> bool:
        return any(window.active(self.now)
                   for window in self.spec.syn_flood)

    def packets(self, count: int) -> Iterator[FiveTuple]:
        """Lazily generate the next ``count`` packets of the scenario."""
        spec = self.spec
        emitted = 0
        while emitted < count:
            multiplier = (spec.diurnal.multiplier(self.now)
                          if spec.diurnal else 1.0)
            self._admit_arrivals(multiplier)

            if spec.syn_rate > 0 and self._syn_active():
                for _ in range(self._syn.count(multiplier)):
                    # Each SYN is a never-repeating one-packet TCP flow
                    # aimed at the busiest service group: pure cache
                    # pollution.
                    syn_id = _ATTACK_ID_BASE + self._next_syn
                    self._next_syn += 1
                    self.stats.packets += 1
                    self.stats.syn_packets += 1
                    emitted += 1
                    yield make_flow(syn_id, proto=PROTO_TCP, group=0)
                    if emitted >= count:
                        return

            if self._live_count:
                flow_id, band_key, index = self._pick_live()
                self.stats.packets += 1
                emitted += 1
                yield make_flow(flow_id, group=flow_id % spec.groups)
                left = self._remaining[flow_id] - 1
                if left:
                    self._remaining[flow_id] = left
                else:
                    del self._remaining[flow_id]
                    band = self._bands[band_key]
                    band[index] = band[-1]   # swap-remove within the band
                    band.pop()
                    if not band:
                        del self._bands[band_key]
                    self._live_count -= 1
                    self.stats.departures += 1
            self.now += 1.0

    def keys(self, count: int) -> Iterator[bytes]:
        """The same stream as 16-byte hash-table keys."""
        for flow in self.packets(count):
            yield flow.pack()

"""Flow-lifecycle building blocks: arrival processes, size distributions,
and popularity skew.

Everything here is a small deterministic sampler over a private
``random.Random`` stream (stdlib only, so streams do not depend on the
numpy version), forked per component from one master seed so adding a
component never perturbs another's stream:

* :class:`PoissonArrivals` / :class:`MmppArrivals` — how many flows start
  per tick (MMPP switches between a quiet and a bursty Poisson rate with
  exponentially distributed dwell times, the standard model for
  correlated arrival bursts);
* :class:`ParetoSizes` — flow length in packets, heavy-tailed: most flows
  are mice, a few elephants carry most packets;
* :class:`ZipfSelector` — which *live* flow the next packet belongs to,
  rank-skewed so low-rank (old, hot) flows dominate.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence

#: :class:`ZipfSelector` rebuilds its rank CDF once the population has
#: drifted past this fraction of the cached size.
REBUILD_SLACK = 0.25


def fork_rng(seed: int, tag: str) -> random.Random:
    """A child RNG stream deterministically derived from (seed, tag)."""
    mix = seed & 0xFFFFFFFFFFFFFFFF
    for ch in tag:
        mix = (mix ^ ord(ch)) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
    return random.Random(mix)


class PoissonArrivals:
    """Poisson flow arrivals: per-tick count ~ Bernoulli-thinned rate.

    ``count(multiplier)`` returns how many flows start this tick for a
    mean rate of ``rate * multiplier`` flows/tick, sampled by inversion
    (exact for the small per-tick means churn scenarios use).
    """

    def __init__(self, rate: float, rng: random.Random) -> None:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.rate = rate
        self._rng = rng

    def count(self, multiplier: float = 1.0) -> int:
        mean = self.rate * multiplier
        if mean <= 0:
            return 0
        # Inverse-CDF Poisson sampling (Knuth's product form in log space
        # is unnecessary at the sub-10 means churn ticks run at).
        target = self._rng.random()
        probability = 2.718281828459045 ** (-mean)
        cumulative = probability
        count = 0
        while target > cumulative and count < 1024:
            count += 1
            probability *= mean / count
            cumulative += probability
        return count


class MmppArrivals:
    """A 2-state Markov-modulated Poisson process.

    State 0 arrives at ``quiet_rate``, state 1 at ``burst_rate``; dwell
    times in each state are geometric with the given mean ticks.  The
    effective rate multiplier composes with the diurnal curve.
    """

    def __init__(self, quiet_rate: float, burst_rate: float,
                 mean_quiet_ticks: float, mean_burst_ticks: float,
                 rng: random.Random) -> None:
        if min(quiet_rate, burst_rate) < 0:
            raise ValueError("rates must be >= 0")
        if min(mean_quiet_ticks, mean_burst_ticks) <= 0:
            raise ValueError("dwell times must be positive")
        self._rates = (quiet_rate, burst_rate)
        self._switch = (1.0 / mean_quiet_ticks, 1.0 / mean_burst_ticks)
        self._rng = rng
        self._arrivals = PoissonArrivals(1.0, rng)
        self.state = 0

    def count(self, multiplier: float = 1.0) -> int:
        if self._rng.random() < self._switch[self.state]:
            self.state ^= 1
        self._arrivals.rate = self._rates[self.state]
        return self._arrivals.count(multiplier)


class ParetoSizes:
    """Heavy-tailed flow sizes: ``size = min_packets / U**(1/alpha)``.

    ``alpha`` near 1 gives the classic elephant/mice split; ``cap``
    truncates the tail so one flow cannot absorb a whole run.
    """

    def __init__(self, alpha: float, min_packets: int, cap: int,
                 rng: random.Random) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 1 <= min_packets <= cap:
            raise ValueError("need 1 <= min_packets <= cap")
        self.alpha = alpha
        self.min_packets = min_packets
        self.cap = cap
        self._rng = rng

    def sample(self) -> int:
        uniform = 1.0 - self._rng.random()   # (0, 1]
        size = int(self.min_packets * uniform ** (-1.0 / self.alpha))
        return min(max(size, self.min_packets), self.cap)


class ZipfSelector:
    """Zipf(s) rank selection over a changing population.

    ``pick(n)`` returns a rank in ``[0, n)`` with P(r) ∝ (r+1)**-s.  The
    rank CDF is cached and rebuilt only when the population has drifted
    past :data:`REBUILD_SLACK` of the cached size, keeping selection O(log n)
    per packet while the live-flow set churns.  Ranks beyond the cached
    table clamp to the tail, so correctness never depends on the rebuild
    heuristic.
    """

    def __init__(self, s: float, rng: random.Random) -> None:
        if s < 0:
            raise ValueError("skew must be >= 0")
        self.s = s
        self._rng = rng
        self._cdf: List[float] = []

    def _rebuild(self, n: int) -> None:
        weights = [(rank + 1) ** -self.s for rank in range(n)]
        total = 0.0
        cdf = []
        for weight in weights:
            total += weight
            cdf.append(total)
        self._cdf = [value / total for value in cdf]

    def pick(self, n: int) -> int:
        if n <= 1:
            return 0
        if self.s == 0:
            return self._rng.randrange(n)
        cached = len(self._cdf)
        if cached == 0 or abs(n - cached) > REBUILD_SLACK * cached:
            self._rebuild(n)
        rank = bisect.bisect_left(self._cdf, self._rng.random())
        return min(rank, n - 1)


def harmonic_weights(n: int, s: float) -> Sequence[float]:
    """Normalised Zipf(s) weights for ``n`` ranks (analysis helper)."""
    weights = [(rank + 1) ** -s for rank in range(n)]
    total = sum(weights)
    return [weight / total for weight in weights]

"""Cluster-level fault schedules: which shard fails, on which attempt.

:class:`~repro.faults.plan.FaultPlan` speaks the language of one socket —
cycles, slices, DRAM.  The ``repro.cluster`` layer needs a coarser
vocabulary: *shard 3 is dead*, *shard 1 crashes once and recovers on
retry*, *shard 5 runs slow*.  :class:`ShardFaultPlan` is that schedule —
pure data, resolved attempt by attempt by ``run_cluster``: a kill
decision fails that attempt (a flap recovers on a later one, a permanent
kill exhausts the retry budget), and the shard that runs applies its
attempt's straggler decision, so the same seed realises the same fault
history on every run.

Determinism and monotonicity are load-bearing:

* every probabilistic decision is a single :class:`SplitMix64` draw forked
  by ``(window, shard)`` — independent of the rate being tested — so the
  set of killed shards at rate *x* is a subset of the set at *y > x*
  (``cluster_chaos`` asserts lost-flow and p99 monotonicity on top of
  this);
* windows may additionally duty-cycle over the *shard-index* axis
  (``period``/``duty``), giving structural coverage that needs no RNG at
  all;
* ``protected`` shards are never killed, so a plan can guarantee at least
  one survivor for failover to re-steer onto.

Public contract: :class:`ShardFaultKind`, :class:`ShardFaultWindow`,
:class:`ShardFaultDecision`, and :class:`ShardFaultPlan` (including
``decide``'s pure-function determinism, the subset-nesting guarantee
described above, and the ``to_params``/``from_params`` JSON round-trip)
are stable API.  The presets (:meth:`ShardFaultPlan.kills`,
:meth:`ShardFaultPlan.flaky`, :meth:`ShardFaultPlan.chaos`) may gain
keyword knobs but keep their semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .plan import SplitMix64


class ShardFaultKind(enum.Enum):
    """The shard-level fault classes the cluster knows how to realise."""

    KILL = "kill"            # shard dies on every attempt (permanent loss)
    FLAP = "flap"            # shard dies on early attempts, then recovers
    STRAGGLER = "straggler"  # shard serves, but every lookup costs extra cycles


@dataclass(frozen=True)
class ShardFaultWindow:
    """One fault affecting a (deterministically chosen) set of shards.

    Targeting composes three filters, all of which must pass:

    * ``shards`` — explicit allow-list (empty tuple = all shards);
    * ``period``/``duty`` — duty cycle over the shard-index axis: with
      ``period=4, duty=0.5`` only shards ``0, 1 (mod 4)`` are eligible;
    * ``rate`` — probabilistic gate: one uniform draw per (window, shard),
      affected iff ``draw < rate``.  The draw does not depend on ``rate``,
      so raising it only ever *adds* shards.

    ``flap_attempts`` bounds how many attempts a :attr:`ShardFaultKind.FLAP`
    window kills before the shard recovers; ``magnitude`` is the extra
    simulated cycles per lookup for :attr:`ShardFaultKind.STRAGGLER`.
    """

    kind: ShardFaultKind
    rate: float = 1.0
    shards: Tuple[int, ...] = ()
    period: Optional[int] = None
    duty: float = 1.0
    flap_attempts: int = 1
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if self.period is not None and self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError(f"duty {self.duty} outside [0, 1]")
        if self.flap_attempts < 1:
            raise ValueError("flap_attempts must be >= 1")
        if self.magnitude < 0:
            raise ValueError("magnitude must be non-negative")
        if not isinstance(self.shards, tuple):
            object.__setattr__(self, "shards", tuple(self.shards))

    def covers(self, shard: int) -> bool:
        """Do the structural filters (allow-list, duty cycle) admit
        ``shard``?  The probabilistic ``rate`` gate is the plan's job —
        it owns the RNG."""
        if self.shards and shard not in self.shards:
            return False
        if self.period is not None:
            return (shard % self.period) < self.duty * self.period
        return True

    def kills_attempt(self, attempt: int) -> bool:
        """Does this window kill the given (1-based) attempt?"""
        if self.kind is ShardFaultKind.KILL:
            return True
        if self.kind is ShardFaultKind.FLAP:
            return attempt <= self.flap_attempts
        return False


@dataclass(frozen=True)
class ShardFaultDecision:
    """The realised outcome of :meth:`ShardFaultPlan.decide` for one
    (shard, attempt): die now, and/or serve slower."""

    kill: bool = False
    straggle_cycles: float = 0.0
    kinds: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.kill or self.straggle_cycles > 0


@dataclass(frozen=True)
class ShardFaultPlan:
    """An immutable shard-fault schedule + seed.

    ``decide(shard, attempt)`` is a pure function of (plan, shard,
    attempt): ``run_cluster`` calls it for the kill decision and the
    shard for the straggler decision, and both must reach the same
    conclusion on every run.
    """

    windows: Tuple[ShardFaultWindow, ...] = ()
    seed: int = 0x5AD0
    protected: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if not isinstance(self.windows, tuple):
            object.__setattr__(self, "windows", tuple(self.windows))
        if not isinstance(self.protected, tuple):
            object.__setattr__(self, "protected", tuple(self.protected))

    def __bool__(self) -> bool:
        return bool(self.windows)

    # -- the decision procedure -------------------------------------------
    def _affects(self, index: int, window: ShardFaultWindow,
                 shard: int) -> bool:
        if not window.covers(shard):
            return False
        if window.rate >= 1.0:
            return True
        # One draw per (window, shard), forked so evaluation order is
        # irrelevant and the draw is independent of ``rate`` (nesting).
        draw = SplitMix64(self.seed).fork(index + 1).fork(shard + 1).uniform()
        return draw < window.rate

    def decide(self, shard: int, attempt: int) -> ShardFaultDecision:
        """What happens to ``shard`` on (1-based) ``attempt``?

        Kill decisions are suppressed for ``protected`` shards;
        straggler slowdowns still apply to them (a slow survivor is the
        interesting case).  Multiple straggler windows stack additively.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        kill = False
        straggle = 0.0
        kinds = []
        for index, window in enumerate(self.windows):
            if not self._affects(index, window, shard):
                continue
            if window.kills_attempt(attempt):
                if shard not in self.protected:
                    kill = True
                    kinds.append(window.kind.value)
            elif window.kind is ShardFaultKind.STRAGGLER:
                straggle += window.magnitude
                kinds.append(window.kind.value)
        return ShardFaultDecision(kill=kill, straggle_cycles=straggle,
                                  kinds=tuple(kinds))

    def doomed_shards(self, shards: int, attempts: int) -> Tuple[int, ...]:
        """Shards that die on *every* attempt up to ``attempts`` — the
        ones failover must re-steer around."""
        doomed = []
        for shard in range(shards):
            if all(self.decide(shard, a).kill
                   for a in range(1, attempts + 1)):
                doomed.append(shard)
        return tuple(doomed)

    # -- serialisation -----------------------------------------------------
    def to_params(self) -> Dict[str, Any]:
        """A JSON-safe dict (experiment params, cross-process shard
        params).  Round-trips exactly through :meth:`from_params`."""
        return {
            "seed": self.seed,
            "protected": list(self.protected),
            "windows": [
                {
                    "kind": w.kind.value,
                    "rate": w.rate,
                    "shards": list(w.shards),
                    "period": w.period,
                    "duty": w.duty,
                    "flap_attempts": w.flap_attempts,
                    "magnitude": w.magnitude,
                }
                for w in self.windows
            ],
        }

    @classmethod
    def from_params(cls, params: Dict[str, Any]) -> "ShardFaultPlan":
        """Inverse of :meth:`to_params`; validates through the dataclass
        constructors, so a corrupted dict raises rather than mis-steers."""
        windows = tuple(
            ShardFaultWindow(
                kind=ShardFaultKind(w["kind"]),
                rate=w.get("rate", 1.0),
                shards=tuple(w.get("shards", ())),
                period=w.get("period"),
                duty=w.get("duty", 1.0),
                flap_attempts=w.get("flap_attempts", 1),
                magnitude=w.get("magnitude", 0.0),
            )
            for w in params.get("windows", ())
        )
        return cls(windows=windows, seed=params.get("seed", 0x5AD0),
                   protected=tuple(params.get("protected", (0,))))

    def describe(self) -> str:
        if not self.windows:
            return f"ShardFaultPlan(empty, seed={self.seed:#x})"
        lines = [f"ShardFaultPlan(seed={self.seed:#x}, "
                 f"protected={list(self.protected)}, "
                 f"{len(self.windows)} window(s)):"]
        for window in self.windows:
            where = ("all shards" if not window.shards
                     else f"shards {list(window.shards)}")
            duty = ""
            if window.period is not None:
                duty = (f", duty {window.duty:.0%} of "
                        f"{window.period}-shard periods")
            lines.append(
                f"  {window.kind.value:>9} rate={window.rate:g} {where}"
                f"{duty}, flap_attempts={window.flap_attempts}, "
                f"magnitude={window.magnitude:g}")
        return "\n".join(lines)

    # -- presets -----------------------------------------------------------
    @classmethod
    def kills(cls, rate: float, seed: int = 0x5AD0,
              protected: Tuple[int, ...] = (0,)) -> "ShardFaultPlan":
        """Permanent shard deaths at ``rate``: the canonical failover
        scenario.  ``rate=0`` is an empty plan (healthy cluster), and the
        killed set nests as ``rate`` rises (same seed)."""
        if rate == 0.0:
            return cls(windows=(), seed=seed, protected=protected)
        return cls(windows=(ShardFaultWindow(
            kind=ShardFaultKind.KILL, rate=rate), ),
            seed=seed, protected=protected)

    @classmethod
    def flaky(cls, rate: float, attempts: int = 1,
              seed: int = 0x5AD0) -> "ShardFaultPlan":
        """Transient crashes: affected shards die on their first
        ``attempts`` tries, then recover — retry budget permitting,
        ``run_cluster`` absorbs these without failover."""
        if rate == 0.0:
            return cls(windows=(), seed=seed, protected=())
        return cls(windows=(ShardFaultWindow(
            kind=ShardFaultKind.FLAP, rate=rate,
            flap_attempts=attempts), ), seed=seed, protected=())

    @classmethod
    def chaos(cls, kill_rate: float, seed: int = 0x5AD0,
              protected: Tuple[int, ...] = (0,),
              straggle_cycles: float = 48.0) -> "ShardFaultPlan":
        """The ``cluster_chaos`` mix: permanent kills at ``kill_rate``,
        first-attempt flaps at half that, and stragglers (fixed extra
        per-lookup cycles) at the same rate as the kills.  Window order is
        fixed, so the affected sets nest monotonically in ``kill_rate``.
        """
        if kill_rate == 0.0:
            return cls(windows=(), seed=seed, protected=protected)
        windows = (
            ShardFaultWindow(kind=ShardFaultKind.KILL, rate=kill_rate),
            ShardFaultWindow(kind=ShardFaultKind.FLAP,
                             rate=kill_rate / 2.0, flap_attempts=1),
            ShardFaultWindow(kind=ShardFaultKind.STRAGGLER, rate=kill_rate,
                             magnitude=straggle_cycles),
        )
        return cls(windows=windows, seed=seed, protected=protected)

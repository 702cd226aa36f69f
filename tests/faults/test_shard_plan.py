"""Shard-level fault schedules: determinism, kill-set nesting, the
protected-shard guarantee, and loud rejection of malformed plans."""

import pytest

from repro.faults import (
    ShardFaultDecision,
    ShardFaultKind,
    ShardFaultPlan,
    ShardFaultWindow,
)

SHARDS = 16
ATTEMPTS = 3


class TestWindowValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rate_range(self, bad):
        with pytest.raises(ValueError, match="outside"):
            ShardFaultWindow(kind=ShardFaultKind.KILL, rate=bad)

    def test_period_positive(self):
        with pytest.raises(ValueError, match="period"):
            ShardFaultWindow(kind=ShardFaultKind.KILL, period=0)

    def test_duty_range(self):
        with pytest.raises(ValueError, match="duty"):
            ShardFaultWindow(kind=ShardFaultKind.KILL, period=4, duty=2.0)

    def test_flap_attempts_positive(self):
        with pytest.raises(ValueError, match="flap_attempts"):
            ShardFaultWindow(kind=ShardFaultKind.FLAP, flap_attempts=0)

    def test_magnitude_non_negative(self):
        with pytest.raises(ValueError, match="magnitude"):
            ShardFaultWindow(kind=ShardFaultKind.STRAGGLER, magnitude=-1.0)

    def test_kind_must_be_a_shard_fault_kind(self):
        # A bare string would be stored and never kill anything.
        with pytest.raises(TypeError,
                           match=r"ShardFaultWindow\.kind must be a "
                                 r"ShardFaultKind \(got 'kill'\)"):
            ShardFaultWindow(kind="kill")

    def test_magnitude_rejects_nan(self):
        with pytest.raises(ValueError,
                           match=r"ShardFaultWindow\.magnitude must be "
                                 r">= 0 \(got nan\)"):
            ShardFaultWindow(kind=ShardFaultKind.STRAGGLER,
                             magnitude=float("nan"))


class TestPlanValidation:
    def test_protected_rejects_negative_shard_ids(self):
        with pytest.raises(ValueError,
                           match=r"ShardFaultPlan\.protected must hold "
                                 r"shard ids >= 0 \(got \[-1\]\)"):
            ShardFaultPlan.kills(0.5, protected=(0, -1))


class TestTargeting:
    def test_allow_list_filters(self):
        window = ShardFaultWindow(kind=ShardFaultKind.KILL, shards=(2, 5))
        assert window.covers(2) and window.covers(5)
        assert not window.covers(0) and not window.covers(3)

    def test_duty_cycle_over_shard_index(self):
        window = ShardFaultWindow(kind=ShardFaultKind.KILL,
                                  period=4, duty=0.5)
        covered = [s for s in range(8) if window.covers(s)]
        assert covered == [0, 1, 4, 5]

    def test_flap_kills_only_early_attempts(self):
        window = ShardFaultWindow(kind=ShardFaultKind.FLAP, flap_attempts=2)
        assert window.kills_attempt(1) and window.kills_attempt(2)
        assert not window.kills_attempt(3)

    def test_straggler_never_kills(self):
        window = ShardFaultWindow(kind=ShardFaultKind.STRAGGLER,
                                  magnitude=10.0)
        assert not window.kills_attempt(1)


class TestDecide:
    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            ShardFaultPlan.kills(1.0).decide(1, 0)

    def test_pure_function_of_seed(self):
        first = ShardFaultPlan.kills(0.5, seed=9)
        second = ShardFaultPlan.kills(0.5, seed=9)
        decisions = [(s, a) for s in range(SHARDS)
                     for a in range(1, ATTEMPTS + 1)]
        assert [first.decide(s, a) for s, a in decisions] == \
            [second.decide(s, a) for s, a in decisions]

    def test_different_seed_different_kill_set(self):
        kills = lambda seed: ShardFaultPlan.kills(0.5, seed=seed) \
            .doomed_shards(SHARDS, ATTEMPTS)
        assert any(kills(seed) != kills(seed + 100) for seed in range(5))

    def test_kill_sets_nest_as_rate_rises(self):
        """The per-shard draw is independent of the rate, so raising the
        rate only ever adds shards — the monotonicity ``cluster_chaos``
        builds its p99/lost-flow checks on."""
        previous = set()
        for rate in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            doomed = set(ShardFaultPlan.kills(rate, seed=3)
                         .doomed_shards(SHARDS, ATTEMPTS))
            assert previous <= doomed
            previous = doomed
        assert previous == set(range(1, SHARDS))  # all but protected

    def test_protected_shards_never_die(self):
        plan = ShardFaultPlan.kills(1.0, protected=(0, 3))
        doomed = plan.doomed_shards(SHARDS, ATTEMPTS)
        assert 0 not in doomed and 3 not in doomed
        assert len(doomed) == SHARDS - 2

    def test_protected_shards_still_straggle(self):
        plan = ShardFaultPlan(
            windows=(ShardFaultWindow(kind=ShardFaultKind.STRAGGLER,
                                      magnitude=32.0), ),
            protected=(0,))
        decision = plan.decide(0, 1)
        assert not decision.kill
        assert decision.straggle_cycles == 32.0

    def test_straggler_windows_stack(self):
        plan = ShardFaultPlan(windows=(
            ShardFaultWindow(kind=ShardFaultKind.STRAGGLER, magnitude=8.0),
            ShardFaultWindow(kind=ShardFaultKind.STRAGGLER, magnitude=4.0),
        ))
        assert plan.decide(1, 1).straggle_cycles == 12.0

    def test_flap_recovers_on_later_attempt(self):
        plan = ShardFaultPlan.flaky(1.0, attempts=2)
        assert plan.decide(1, 1).kill
        assert plan.decide(1, 2).kill
        assert not plan.decide(1, 3).kill

    def test_decision_truthiness(self):
        assert not ShardFaultDecision()
        assert ShardFaultDecision(kill=True)
        assert ShardFaultDecision(straggle_cycles=1.0)


class TestPresets:
    def test_rate_zero_plans_are_empty_and_falsy(self):
        assert not ShardFaultPlan.kills(0.0)
        assert not ShardFaultPlan.flaky(0.0)
        assert not ShardFaultPlan.chaos(0.0)

    def test_kills_preset_is_permanent(self):
        plan = ShardFaultPlan.kills(1.0)
        assert plan.decide(1, 1).kill and plan.decide(1, 5).kill

    def test_chaos_affected_sets_nest(self):
        low = ShardFaultPlan.chaos(0.2, seed=4)
        high = ShardFaultPlan.chaos(0.8, seed=4)
        assert set(low.doomed_shards(SHARDS, 1)) <= \
            set(high.doomed_shards(SHARDS, 1))

    def test_describe_mentions_every_window(self):
        text = ShardFaultPlan.chaos(0.4).describe()
        assert "kill" in text and "flap" in text and "straggler" in text
        assert ShardFaultPlan.kills(0.0).describe().startswith(
            "ShardFaultPlan(empty")

"""Shard kill sets: determinism, nesting as the rate rises, the
protected-shard guarantee, and loud rejection of malformed plans."""

import pytest

from repro.faults import ShardFaultPlan, SplitMix64

SHARDS = 16


def kill_set(plan):
    return {shard for shard in range(SHARDS) if plan.killed(shard)}


class TestPlanValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_kill_rate_range(self, bad):
        with pytest.raises(ValueError,
                           match=r"ShardFaultPlan\.kill_rate .* outside "
                                 r"\[0, 1\]"):
            ShardFaultPlan(bad)

    def test_protected_rejects_negative_shard_ids(self):
        with pytest.raises(ValueError,
                           match=r"ShardFaultPlan\.protected must hold "
                                 r"shard ids >= 0 \(got \[-1\]\)"):
            ShardFaultPlan(0.5, protected=(0, -1))


class TestKilled:
    def test_pure_function_of_seed(self):
        assert kill_set(ShardFaultPlan(0.5, seed=9)) \
            == kill_set(ShardFaultPlan(0.5, seed=9))

    def test_draw_is_the_shard_fork_of_the_seed(self):
        """The kill set the cluster_chaos reports were measured with:
        shard s dies iff fork(1).fork(s + 1) of the seed draws below the
        rate."""
        plan = ShardFaultPlan(0.5, seed=11)
        for shard in range(1, SHARDS):
            draw = SplitMix64(11).fork(1).fork(shard + 1).uniform()
            assert plan.killed(shard) == (draw < 0.5)

    def test_different_seed_different_kill_set(self):
        kills = lambda seed: kill_set(ShardFaultPlan(0.5, seed=seed))
        assert any(kills(seed) != kills(seed + 100) for seed in range(5))

    def test_kill_sets_nest_as_rate_rises(self):
        """The per-shard draw is independent of the rate, so raising the
        rate only ever adds shards — the monotonicity ``cluster_chaos``
        builds its p99/lost-flow checks on."""
        previous = set()
        for rate in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            killed = kill_set(ShardFaultPlan(rate, seed=3))
            assert previous <= killed
            previous = killed
        assert previous == set(range(1, SHARDS))  # all but protected

    def test_zero_rate_kills_nothing(self):
        assert kill_set(ShardFaultPlan(0.0, protected=())) == set()

    def test_protected_shards_never_die(self):
        killed = kill_set(ShardFaultPlan(1.0, protected=(0, 3)))
        assert 0 not in killed and 3 not in killed
        assert len(killed) == SHARDS - 2

"""Cluster self-healing: deterministic RSS failover re-steering,
minimal-move restore, and ``run_cluster(failover=True)`` recovering every
flow of every killed shard without leaving the calling process."""

import multiprocessing

import pytest

from repro.cluster import ClusterConfig, RssBalancer, run_cluster
from repro.faults import ShardFaultPlan
from repro.obs import MetricsRegistry, TraceRecorder

QUICK = dict(flows=48, lookups=240)

#: Seed whose per-shard kill draws make rates 0.2/0.4/0.7 kill exactly
#: shards {1}, {1,2}, {1,2,3} of 4 (see cluster_chaos.FAULT_SEED).
FAULT_SEED = 11


def chaos_config(kill_rate, seed=1234, **overrides):
    plan = ShardFaultPlan.kills(kill_rate, seed=FAULT_SEED)
    defaults = dict(shards=4, seed=seed, retries=1, failover=True,
                    shard_faults=plan.to_params() if plan else None,
                    detection_cycles=4096.0, **QUICK)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestFailShard:
    def test_resteers_every_entry_off_the_dead_shard(self):
        balancer = RssBalancer(4, table_size=32, seed=1)
        change = balancer.fail_shard(2)
        assert change.kind == "fail" and change.shard == 2
        assert len(change.moves) == 8  # round-robin init: 32/4 entries
        assert 2 not in balancer.table
        assert balancer.failed_shards == [2]
        assert balancer.healthy_shards == [0, 1, 3]

    def test_deterministic_across_instances(self):
        first = RssBalancer(5, table_size=64, seed=9)
        second = RssBalancer(5, table_size=64, seed=9)
        first.fail_shard(3)
        second.fail_shard(3)
        assert first.table == second.table
        assert first.steering_log == second.steering_log

    def test_survivors_stay_balanced(self):
        balancer = RssBalancer(4, table_size=128, seed=2)
        balancer.fail_shard(1)
        counts = [balancer.table.count(s) for s in (0, 2, 3)]
        assert max(counts) - min(counts) <= 1

    def test_each_change_bumps_the_epoch(self):
        balancer = RssBalancer(3, table_size=12)
        assert balancer.epoch == 0
        balancer.fail_shard(1)
        assert balancer.epoch == 1
        balancer.restore_shard(1)
        assert balancer.epoch == 2
        assert [c.epoch for c in balancer.steering_log] == [1, 2]

    def test_cascaded_failures_leave_last_survivor_serving(self):
        balancer = RssBalancer(3, table_size=12)
        balancer.fail_shard(1)
        balancer.fail_shard(2)
        assert set(balancer.table) == {0}
        with pytest.raises(ValueError, match="last healthy shard"):
            balancer.fail_shard(0)

    def test_double_fail_rejected(self):
        balancer = RssBalancer(3, table_size=12)
        balancer.fail_shard(1)
        with pytest.raises(ValueError, match="already marked failed"):
            balancer.fail_shard(1)


class TestRestoreShard:
    def test_restore_is_minimal_move_inverse(self):
        balancer = RssBalancer(4, table_size=64, seed=7)
        before = list(balancer.table)
        balancer.fail_shard(2)
        change = balancer.restore_shard(2)
        assert change.kind == "restore"
        assert balancer.table == before
        # Exactly the entries the shard owned moved back, nothing else.
        assert sorted(entry for entry, _f, _t in change.moves) == \
            [e for e, s in enumerate(before) if s == 2]

    def test_restore_after_rebalance_returns_new_home(self):
        """``home`` tracks deliberate assignment: entries rebalanced onto
        a shard before it died come back to it on restore."""
        from repro.traffic.generator import FlowSet, key_stream
        flow_set = FlowSet.generate(64, seed=5)
        keys = key_stream(flow_set, 2000, zipf_s=1.2, seed=6)
        balancer = RssBalancer(4, table_size=32, seed=5)
        balancer.rebalance(keys)
        homes = list(balancer.table)
        balancer.fail_shard(1)
        balancer.restore_shard(1)
        assert balancer.table == homes

    def test_restore_of_healthy_shard_rejected(self):
        balancer = RssBalancer(2, table_size=8)
        with pytest.raises(ValueError, match="not marked failed"):
            balancer.restore_shard(1)


class TestFailoverObservability:
    def test_counters_and_spans(self):
        metrics = MetricsRegistry()
        trace = TraceRecorder()
        balancer = RssBalancer(4, table_size=32, seed=1,
                               metrics=metrics, trace=trace)
        balancer.fail_shard(3)
        balancer.restore_shard(3)
        snapshot = metrics.snapshot()
        assert snapshot["cluster.failover.fail_events"] == 1
        assert snapshot["cluster.failover.restore_events"] == 1
        assert snapshot["cluster.failover.resteered_entries"] == 16
        assert snapshot["cluster.failover.unhealthy_shards"] == 0
        spans = [root for root in trace.roots
                 if root.name == "failover.resteer"]
        assert [span.attrs["kind"] for span in spans] == ["fail", "restore"]
        assert all(span.attrs["shard"] == 3 for span in spans)

    def test_unobserved_balancer_steers_identically(self):
        plain = RssBalancer(4, table_size=32, seed=1)
        wired = RssBalancer(4, table_size=32, seed=1,
                            metrics=MetricsRegistry(),
                            trace=TraceRecorder())
        plain.fail_shard(2)
        wired.fail_shard(2)
        assert plain.table == wired.table


class TestInstallHardening:
    def test_rejects_bool_entries(self):
        balancer = RssBalancer(2, table_size=4)
        with pytest.raises(ValueError, match="must be shard ids"):
            balancer.install([0, True, 0, 1])

    def test_rejects_routing_to_failed_shard(self):
        balancer = RssBalancer(2, table_size=4)
        balancer.fail_shard(1)
        with pytest.raises(ValueError, match="marked failed"):
            balancer.install([0, 1, 0, 1])

    def test_bad_install_leaves_table_untouched(self):
        balancer = RssBalancer(2, table_size=4)
        before = list(balancer.table)
        with pytest.raises(ValueError):
            balancer.install([0, 1, 9, 1])
        assert balancer.table == before and balancer.epoch == 0

    def test_rebalance_rejects_negative_max_moves(self):
        balancer = RssBalancer(2, table_size=4)
        with pytest.raises(ValueError, match="max_moves"):
            balancer.rebalance([], max_moves=-1)

    def test_fail_shard_rejects_non_int(self):
        balancer = RssBalancer(2, table_size=4)
        with pytest.raises(ValueError, match="must be an int"):
            balancer.fail_shard(True)


class TestRunClusterFailover:
    def test_shards_run_in_the_calling_process(self, monkeypatch):
        """Primary and recovery rounds never start a child process."""
        def refuse_to_start(process):
            raise AssertionError(f"run_cluster started {process.name}")

        monkeypatch.setattr(multiprocessing.Process, "start",
                            refuse_to_start)
        result = run_cluster(chaos_config(0.4))
        assert result.failed_shards == [1, 2]
        assert result.lost_flows == 0
        assert result.recovery_lookups > 0

    def test_zero_lost_flows_across_kill_rates(self):
        for rate, expected_dead in ((0.2, [1]), (0.4, [1, 2]),
                                    (0.7, [1, 2, 3])):
            result = run_cluster(chaos_config(rate))
            assert result.failed_shards == expected_dead
            assert result.lost_flows == 0
            assert result.total_lookups == QUICK["lookups"]
            assert result.recovery_lookups > 0
            assert result.resteered_entries > 0

    def test_degraded_epochs_one_per_victim_in_shard_order(self):
        result = run_cluster(chaos_config(0.7))
        assert result.degraded_epochs == {1: 1, 2: 2, 3: 3}

    def test_recovery_results_marked_degraded(self):
        result = run_cluster(chaos_config(0.4))
        degraded = [r for r in result.shard_results if r.degraded]
        healthy = [r for r in result.shard_results if not r.degraded]
        assert degraded and healthy
        assert sum(r.lookups for r in degraded) == result.recovery_lookups
        # Recovery runs execute on survivors only.
        assert all(r.shard not in result.failed_shards for r in degraded)

    def test_attempt_failures_recorded_per_victim(self):
        result = run_cluster(chaos_config(0.4))
        assert set(result.shard_attempt_failures) == {1, 2}
        for history in result.shard_attempt_failures.values():
            assert [h["attempt"] for h in history] == [1, 2]
            assert all(h["kind"] == "crash" for h in history)

    def test_no_fault_parity_is_exact(self):
        plain = run_cluster(ClusterConfig(shards=4, seed=1234, **QUICK))
        armed = run_cluster(chaos_config(0.0, shard_faults=None))
        assert armed.failed_shards == []
        assert (armed.p50_cycles, armed.p99_cycles, armed.makespan_cycles) \
            == (plain.p50_cycles, plain.p99_cycles, plain.makespan_cycles)
        assert armed.total_lookups == plain.total_lookups

    def test_flap_recovered_by_retry_without_failover(self):
        plan = ShardFaultPlan.flaky(1.0, attempts=1)
        result = run_cluster(chaos_config(
            0.0, shard_faults=plan.to_params()))
        assert result.failed_shards == []
        assert result.lost_flows == 0
        # Every shard flapped once, then recovered on attempt 2.
        assert all([h["attempt"] for h in history] == [1]
                   for history in result.shard_attempt_failures.values())

    def test_kill_without_failover_raises(self):
        config = chaos_config(0.4, failover=False)
        with pytest.raises(RuntimeError, match="failover is disabled"):
            run_cluster(config)

    def test_detection_cycles_shift_recovered_latencies(self):
        near = run_cluster(chaos_config(0.2, detection_cycles=1024.0))
        far = run_cluster(chaos_config(0.2, detection_cycles=65536.0))
        assert far.p99_cycles > near.p99_cycles
        assert near.total_lookups == far.total_lookups

    def test_failover_counters_through_run_cluster(self):
        metrics = MetricsRegistry()
        result = run_cluster(chaos_config(0.4), metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["cluster.failover.fail_events"] == 2
        assert snapshot["cluster.failover.resteered_entries"] == \
            result.resteered_entries
        assert snapshot["cluster.failover.recovery_rounds"] == 1
        assert snapshot["cluster.failover.recovered_flows"] == \
            result.recovery_lookups
        assert snapshot["cluster.failover.unhealthy_shards"] == 2

    def test_cache_refill_measured_on_recovery_rounds(self):
        result = run_cluster(chaos_config(0.4, cache_policy="lru",
                                          cache_entries=16, zipf_s=1.1))
        cold = [r.cache for r in result.shard_results
                if r.degraded and r.cache]
        assert cold
        for info in cold:
            assert info["policy"] == "lru"
            assert info["misses"] >= 1  # a cold cache always misses first
            assert 0.0 < info["miss_rate"] <= 1.0

"""The cluster orchestrator: config boundaries are checked, shards
partition the stream, results are deterministic, and rebalancing
triggers on skew."""

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.cluster.shards import run_shard

QUICK = dict(flows=48, lookups=240)


class TestConfigValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ClusterConfig(shards=0)

    def test_rejects_zero_sockets(self):
        with pytest.raises(ValueError, match="sockets must be >= 1"):
            ClusterConfig(sockets=0)

    def test_rejects_zero_lookups(self):
        with pytest.raises(ValueError, match="lookups must be >= 1"):
            ClusterConfig(lookups=0)

    def test_rejects_zero_flows(self):
        with pytest.raises(ValueError, match=r"flows must be >= 1 \(got 0\)"):
            ClusterConfig(flows=0)

    def test_rejects_negative_detection_cycles(self):
        with pytest.raises(ValueError,
                           match=r"detection_cycles must be >= 0 or None "
                                 r"\(got -1\.0\)"):
            ClusterConfig(failover=True, detection_cycles=-1.0)

    def test_rejects_shard_faults_string(self):
        with pytest.raises(TypeError,
                           match=r"ClusterConfig\.shard_faults must be a "
                                 r"ShardFaultPlan or None \(got str\)"):
            ClusterConfig(shard_faults="chaos")

    def test_rejects_serialised_shard_faults_dict(self):
        # A serialised plan must fail at construction and name the class
        # to pass instead.
        with pytest.raises(TypeError,
                           match=r"ClusterConfig\.shard_faults must be a "
                                 r"ShardFaultPlan or None \(got dict\)"):
            ClusterConfig(shard_faults={
                "kill_rate": 0.5, "seed": 11, "protected": [0]})

    def test_rejects_unknown_backend(self):
        # Used to construct fine and fail inside the first run_shard.
        with pytest.raises(ValueError,
                           match=r"ClusterConfig\.backend must be one of "
                                 r"\('software', 'halo-b', 'halo-nb', "
                                 r"'adaptive'\) \(got 'bogus'\)"):
            ClusterConfig(backend="bogus")

    @pytest.mark.parametrize("backend",
                             ["software", "halo-b", "halo-nb", "adaptive"])
    def test_accepts_every_backend_kind(self, backend):
        assert ClusterConfig(backend=backend).backend == backend

    @pytest.mark.parametrize("policy", ["bogus", "", "LRU"])
    def test_rejects_unknown_cache_policy(self, policy):
        # Used to fail only after a shard's simulation had finished.
        with pytest.raises(ValueError,
                           match=r"ClusterConfig\.cache_policy must be None "
                                 r"or one of \('random', 'lru', "
                                 r"'second-chance', 'correlator'\) "
                                 rf"\(got '{policy}'\)"):
            ClusterConfig(cache_policy=policy)

    @pytest.mark.parametrize("policy",
                             [None, "random", "lru", "second-chance",
                              "correlator"])
    def test_accepts_none_and_every_policy_name(self, policy):
        assert ClusterConfig(cache_policy=policy).cache_policy == policy


class TestInlineDispatch:
    def test_stream_partitions_exactly(self):
        result = run_cluster(ClusterConfig(shards=3, **QUICK))
        assert result.total_lookups == QUICK["lookups"]
        assert sum(r.lookups for r in result.shard_results) == \
            QUICK["lookups"]
        assert result.total_found == QUICK["lookups"]  # all keys inserted
        assert sorted(r.shard for r in result.shard_results) == [0, 1, 2]

    def test_latency_merge_matches_shard_counts(self):
        result = run_cluster(ClusterConfig(shards=3, **QUICK))
        merged = result.merged_latency()
        assert merged.count == result.total_lookups
        assert result.p99_cycles >= result.p50_cycles > 0
        assert result.throughput_per_kcycle > 0

    def test_single_shard_cluster(self):
        result = run_cluster(ClusterConfig(shards=1, **QUICK))
        assert result.max_shard_fraction == 1.0

    def test_deterministic_across_calls(self):
        config = ClusterConfig(shards=2, **QUICK)
        first = run_cluster(config)
        second = run_cluster(config)
        assert [r.elapsed_cycles for r in first.shard_results] == \
            [r.elapsed_cycles for r in second.shard_results]
        assert first.p99_cycles == second.p99_cycles


class TestRebalanceTrigger:
    def test_below_threshold_does_not_trigger(self):
        result = run_cluster(ClusterConfig(shards=2, rebalance=True,
                                           rebalance_threshold=0.5,
                                           flows=256, lookups=2000))
        assert result.imbalance_before < 0.5
        assert not result.rebalanced
        assert result.rebalance_moves == 0

    def test_skew_triggers_and_improves(self):
        skewed = ClusterConfig(shards=4, zipf_s=1.2, flows=128, lookups=1200)
        without = run_cluster(skewed)
        with_rebalance = run_cluster(
            ClusterConfig(shards=4, zipf_s=1.2, rebalance=True,
                          flows=128, lookups=1200))
        assert with_rebalance.rebalanced
        assert with_rebalance.rebalance_moves > 0
        assert (with_rebalance.max_shard_fraction
                < without.max_shard_fraction)
        assert (with_rebalance.imbalance_after
                < with_rebalance.imbalance_before)

    def test_threshold_gates_the_rewrite(self):
        permissive = run_cluster(
            ClusterConfig(shards=4, zipf_s=1.2, rebalance=True,
                          rebalance_threshold=10.0, flows=128, lookups=1200))
        assert not permissive.rebalanced


class TestShardEdgeCases:
    def test_empty_shard_returns_zero_result(self):
        # A shard the balancer routed nothing to.
        result = run_shard(0, [], sockets=1, backend="software",
                           table_capacity=1 << 10, cache_policy=None,
                           cache_entries=1024)
        assert result.lookups == 0
        assert result.elapsed_cycles == 0.0
        assert result.latency.count == 0

    def test_multi_socket_shard_reports_link_traffic(self):
        result = run_cluster(ClusterConfig(shards=1, sockets=2, **QUICK))
        assert result.link_crossings > 0
        single = run_cluster(ClusterConfig(shards=1, sockets=1, **QUICK))
        assert single.link_crossings == 0

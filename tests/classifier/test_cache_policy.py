"""The EMC's cache-policy seam: eviction invariants, seed determinism,
parity of the default policy with the pre-policy EMC; the megaflow tier
takes no policy."""

import random

import pytest

from repro.classifier.cache_policy import (CorrelatorPolicy, LruPolicy,
                                           POLICY_NAMES,
                                           RandomEvictionPolicy,
                                           SecondChancePolicy,
                                           candidate_keys, make_policy)
from repro.classifier.emc import ExactMatchCache
from repro.classifier.flow import FlowMask, make_flow
from repro.classifier.rules import Action, Rule
from repro.classifier.tuple_space import TupleSpaceSearch
from repro.hashtable.cuckoo import CuckooHashTable
from repro.obs.metrics import (MetricsRegistry, NULL_COUNTER,
                                NULL_HISTOGRAM)
from repro.workloads import ChurnEngine, ChurnSpec

RULE = Rule(mask=FlowMask.exact(), match=make_flow(0),
            action=Action.output(0))


def exercise(policy_name, packets=4000, capacity=64, seed=31):
    """Stream a churn scenario through a small EMC under one policy."""
    emc = ExactMatchCache(capacity, policy=policy_name)
    engine = ChurnEngine(ChurnSpec.high_churn(seed=seed))
    for flow in engine.packets(packets):
        if emc.lookup(flow) is None:
            emc.install(flow, RULE)
    return emc


class TestRegistry:
    def test_policy_names_construct(self):
        for name in POLICY_NAMES:
            policy = make_policy(name)
            assert policy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            make_policy("mru")

    def test_expected_registry(self):
        assert POLICY_NAMES == ("random", "lru", "second-chance",
                                "correlator")


class TestEvictionInvariants:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_occupancy_never_exceeds_capacity(self, name):
        emc = ExactMatchCache(64, policy=name)
        engine = ChurnEngine(ChurnSpec.high_churn(seed=31))
        for flow in engine.packets(4000):
            if emc.lookup(flow) is None:
                emc.install(flow, RULE)
            assert len(emc) <= 64
        assert emc.stats.installs > 64   # table turned over, in place

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_same_seed_bit_identical(self, name):
        first = exercise(name)
        second = exercise(name)
        assert (sorted(k for k, _ in first.table.items())
                == sorted(k for k, _ in second.table.items()))
        assert first.stats == second.stats

    @pytest.mark.parametrize("name", ["second-chance", "correlator"])
    def test_admission_rejects_counted(self, name):
        emc = exercise(name)
        assert emc.stats.admission_rejects > 0

    @pytest.mark.parametrize("name", ["random", "lru"])
    def test_unconditional_admission(self, name):
        emc = exercise(name)
        assert emc.stats.admission_rejects == 0


class TestDefaultPolicyParity:
    def test_matches_pre_policy_emc(self):
        """The refactored install path with the default policy replays
        the seed EMC's RNG stream exactly — the property behind the
        rel=1e-12 fig09/fig11 parity pins."""
        reference = CuckooHashTable(64, key_bytes=16, name="ref")
        rng = random.Random(0xE3C)   # the seed EMC's stream, replayed
        ref_evictions = 0
        engine = ChurnEngine(ChurnSpec.high_churn(seed=17))
        for key in engine.keys(6000):
            if reference.lookup(key) is not None:
                continue                         # mirrors lookup-then-install
            plan = reference.probe(key)
            if not plan.found:
                candidates = (plan.primary_index, plan.secondary_index)
                if all(len(reference.bucket_keys(i)) >= reference.assoc
                       for i in candidates):
                    bucket = rng.choice(candidates)
                    victims = reference.bucket_keys(bucket)
                    if victims:
                        reference.delete(rng.choice(victims))
                        ref_evictions += 1
            reference.insert(key, RULE)
        emc = ExactMatchCache(64)    # default RandomEvictionPolicy
        engine2 = ChurnEngine(ChurnSpec.high_churn(seed=17))
        for flow in engine2.packets(6000):
            if emc.lookup(flow) is None:
                emc.install(flow, RULE)
        assert (sorted(k for k, _ in emc.table.items())
                == sorted(k for k, _ in reference.items()))
        assert emc.stats.evictions == ref_evictions

    def test_default_seed_matches_explicit_random_policy(self):
        default = ExactMatchCache(32)
        explicit = ExactMatchCache(32, policy=RandomEvictionPolicy(0xE3C))
        engine_a = ChurnEngine(ChurnSpec.high_churn(seed=3))
        engine_b = ChurnEngine(ChurnSpec.high_churn(seed=3))
        for flow_a, flow_b in zip(engine_a.packets(3000),
                                  engine_b.packets(3000)):
            if default.lookup(flow_a) is None:
                default.install(flow_a, RULE)
            if explicit.lookup(flow_b) is None:
                explicit.install(flow_b, RULE)
        assert (sorted(k for k, _ in default.table.items())
                == sorted(k for k, _ in explicit.table.items()))
        assert default.stats == explicit.stats


class TestPolicyBehavior:
    def table_with(self, keys):
        """A table holding ``keys`` plus the all-buckets candidate list."""
        table = CuckooHashTable(64, key_bytes=16, name="t")
        for key in keys:
            assert table.insert(key, RULE)
        return table, tuple(range(table.num_buckets))

    def test_lru_evicts_least_recently_used(self):
        policy = LruPolicy()
        keys = [make_flow(i).pack() for i in range(6)]
        table, buckets = self.table_with(keys)
        for key in keys:
            policy.on_install(key)
        for key in keys:
            if key != keys[2]:
                policy.on_hit(key)       # keys[2] stays oldest
        assert policy.victim(table, buckets) == keys[2]

    def test_lru_untracked_key_counts_as_oldest(self):
        policy = LruPolicy()
        keys = [make_flow(i).pack() for i in range(4)]
        table, buckets = self.table_with(keys)
        for key in keys[:3]:
            policy.on_install(key)       # keys[3] never tracked
        assert policy.victim(table, buckets) == keys[3]

    def test_second_chance_protects_referenced_keys(self):
        policy = SecondChancePolicy(lottery=1)
        keys = [make_flow(i).pack() for i in range(3)]
        table, buckets = self.table_with(keys)
        for key in keys:
            policy.on_install(key)
        policy.on_hit(keys[0])
        policy.on_hit(keys[1])
        # keys[2] is the only unreferenced candidate: it must be chosen
        # no matter where the scan starts.
        assert policy.victim(table, buckets) == keys[2]
        policy.on_evict(keys[2])
        table.delete(keys[2])
        # The first pass spent the survivors' reference bits, so a second
        # eviction now finds an unreferenced victim among them.
        assert policy.victim(table, buckets) in keys[:2]

    def test_second_chance_lottery_rejects(self):
        policy = SecondChancePolicy(seed=1, lottery=4)
        decisions = [policy.admit(i.to_bytes(16, "big"))
                     for i in range(400)]
        share = sum(decisions) / len(decisions)
        assert 0.15 < share < 0.35    # ~1/4 admitted

    def test_correlator_admits_only_proven_keys(self):
        policy = CorrelatorPolicy(admit_after=2)
        key = b"k" * 16
        assert not policy.admit(key)      # first attempt: one-hit wonder
        assert policy.admit(key)          # second attempt: proven reuse
        assert not policy.admit(b"x" * 16)

    def test_correlator_history_bounded(self):
        policy = CorrelatorPolicy(admit_after=2, history=16)
        for i in range(100):
            policy.admit(i.to_bytes(16, "big"))
        assert len(policy._attempts) <= 16
        # The earliest keys fell out of the sketch: a second attempt on
        # one of them is treated as a first attempt again.
        assert not policy.admit((0).to_bytes(16, "big"))

    def test_correlator_evicts_fewest_hits(self):
        policy = CorrelatorPolicy(admit_after=1)
        keys = [make_flow(i).pack() for i in range(5)]
        table, buckets = self.table_with(keys)
        for key in keys:
            policy.on_install(key)
        for key in keys:
            if key != keys[3]:
                policy.on_hit(key)       # keys[3] stays the mouse
        assert policy.victim(table, buckets) == keys[3]

    def test_reset_restores_initial_decisions(self):
        for name in POLICY_NAMES:
            policy = make_policy(name, seed=7)
            before = [policy.admit(bytes([i] * 16)) for i in range(32)]
            policy.reset()
            after = [policy.admit(bytes([i] * 16)) for i in range(32)]
            assert before == after

    def test_candidate_keys_deduplicates(self):
        table = CuckooHashTable(16, key_bytes=16, name="t")
        table.insert(b"a" * 16, RULE)
        table.insert(b"b" * 16, RULE)
        plan = table.probe(b"a" * 16)
        keys = candidate_keys(table, (plan.primary_index,
                                      plan.primary_index))
        assert len(keys) == len(set(keys))


class TestMetricsWiring:
    def test_counters_and_histogram_published(self):
        metrics = MetricsRegistry()
        emc = ExactMatchCache(16, policy="second-chance", metrics=metrics,
                              miss_window=32)
        engine = ChurnEngine(ChurnSpec.high_churn(seed=5))
        for flow in engine.packets(2000):
            if emc.lookup(flow) is None:
                emc.install(flow, RULE)
        snap = metrics.snapshot()
        assert snap["emc.evictions"] == emc.stats.evictions
        assert snap["emc.admission_rejects"] == emc.stats.admission_rejects
        assert emc.stats.admission_rejects > 0
        window = snap["emc.second-chance.window_miss_rate"]
        assert window["count"] >= 2000 // 32 - 1

    def test_disabled_metrics_cost_nothing(self):
        # An EMC built without a registry holds the shared null handles.
        emc = ExactMatchCache(16, policy="lru")
        for flow in (make_flow(i) for i in range(64)):
            emc.install(flow, RULE)
        assert emc.stats.evictions > 0
        assert emc._m_evictions is NULL_COUNTER
        assert emc._m_miss_rate is NULL_HISTOGRAM
        assert NULL_COUNTER.value == 0
        assert NULL_HISTOGRAM.count == 0


class TestTupleSpaceSeam:
    def _rule(self, index):
        mask = FlowMask.exact()
        return Rule(mask=mask, match=make_flow(index),
                    action=Action.output(0), rule_id=index)

    def test_no_policy_keeps_best_effort_installs(self):
        tss = TupleSpaceSearch(tuple_capacity=16)
        results = [tss.install(self._rule(i)) for i in range(200)]
        assert not all(results)            # some installs fail when full
        assert len(tss) <= 16

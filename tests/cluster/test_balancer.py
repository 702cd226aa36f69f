"""RSS balancer: deterministic hashing, statistical evenness on uniform
traffic (chi-square), and greedy rebalancing that provably shrinks the
hottest shard under Zipf skew."""

import pytest

from repro.cluster import RssBalancer
from repro.traffic.generator import FlowSet, key_stream, random_keys


def uniform_keys(count, seed=7):
    return random_keys(count, seed=seed)


def zipf_keys(count=4000, flows=256, s=1.2, seed=5):
    flow_set = FlowSet.generate(flows, seed=seed)
    return key_stream(flow_set, count, zipf_s=s, seed=seed + 1)


class TestValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match=">= 1 shard"):
            RssBalancer(0)

    def test_rejects_table_smaller_than_shards(self):
        with pytest.raises(ValueError, match="table_size >= shards"):
            RssBalancer(8, table_size=4)

    def test_install_rejects_wrong_length(self):
        balancer = RssBalancer(2, table_size=8)
        with pytest.raises(ValueError, match="length 4 != configured"):
            balancer.install([0, 1, 0, 1])

    def test_install_rejects_out_of_range_shard(self):
        balancer = RssBalancer(2, table_size=4)
        with pytest.raises(ValueError, match="outside 0..1"):
            balancer.install([0, 1, 2, 0])


class TestDeterminism:
    def test_same_seed_same_routing_across_instances(self):
        keys = uniform_keys(500)
        first = RssBalancer(4, seed=9)
        second = RssBalancer(4, seed=9)
        assert [first.shard_of(k) for k in keys] == \
            [second.shard_of(k) for k in keys]

    def test_different_seed_different_routing(self):
        keys = uniform_keys(500)
        a = RssBalancer(4, seed=1)
        b = RssBalancer(4, seed=2)
        assert [a.shard_of(k) for k in keys] != \
            [b.shard_of(k) for k in keys]

    def test_pinned_hash_values(self):
        """The hash is a forever contract (shard workers re-derive their
        subsets from it across process and version boundaries): pin a
        few values so any accidental change to the mixer fails loudly."""
        balancer = RssBalancer(4, table_size=128, seed=0)
        assert balancer.entry_of(b"\x00" * 16) == 99
        assert balancer.entry_of(b"\xff" * 16) == 46
        assert balancer.entry_of(bytes(range(16))) == 63

    def test_rebalance_is_deterministic(self):
        keys = zipf_keys()
        first = RssBalancer(4, seed=3)
        second = RssBalancer(4, seed=3)
        moves_a = first.rebalance(keys).moves
        moves_b = second.rebalance(keys).moves
        assert moves_a == moves_b
        assert first.table == second.table


class TestUniformSpread:
    def test_chi_square_even_on_uniform_tuples(self):
        """Uniform 5-tuples spread evenly: chi-square over shard loads
        stays below the 0.001-significance critical value."""
        shards = 4
        keys = uniform_keys(8000)
        balancer = RssBalancer(shards, seed=0)
        loads = balancer.shard_loads(keys)
        assert sum(loads) == len(keys)
        expected = len(keys) / shards
        chi_square = sum((load - expected) ** 2 / expected
                         for load in loads)
        # df = 3, critical value at p=0.001 is 16.27.
        assert chi_square < 16.27, loads

    def test_imbalance_near_zero_on_uniform(self):
        balancer = RssBalancer(4, seed=0)
        assert balancer.imbalance(uniform_keys(8000)) < 0.10

    def test_distinct_key_memoisation_matches_per_key_hashing(self):
        balancer = RssBalancer(4, seed=0)
        keys = uniform_keys(64) * 10   # heavy repetition
        loads = balancer.entry_loads(keys)
        naive = [0] * balancer.table_size
        for key in keys:
            naive[balancer.entry_of(key)] += 1
        assert loads == naive


class TestRebalance:
    def test_zipf_skew_strictly_reduced(self):
        keys = zipf_keys()
        balancer = RssBalancer(4, seed=3)
        before = max(balancer.shard_loads(keys))
        result = balancer.rebalance(keys)
        after = max(balancer.shard_loads(keys))
        assert result.moves
        assert result.max_load_before == before
        assert result.max_load_after == after
        assert after < before          # strictly reduces the hot shard
        assert result.improved

    def test_max_never_increases_even_when_balanced(self):
        keys = uniform_keys(4000)
        balancer = RssBalancer(4, seed=0)
        before = max(balancer.shard_loads(keys))
        result = balancer.rebalance(keys)
        assert result.max_load_after <= before

    def test_loads_conserved_across_rebalance(self):
        keys = zipf_keys()
        balancer = RssBalancer(4, seed=3)
        total_before = sum(balancer.shard_loads(keys))
        balancer.rebalance(keys)
        assert sum(balancer.shard_loads(keys)) == total_before

    def test_an_entry_stepped_twice_is_one_move(self):
        """Here the greedy steps entry 9 from shard 1 to 3, then from 3
        to 2 once shard 3 is the hottest; the pass reports the one table
        rewrite: each changed entry once, from its shard before the pass."""
        keys = zipf_keys(300, flows=32, seed=27)
        balancer = RssBalancer(4, table_size=32, seed=27)
        table = list(balancer.table)
        result = balancer.rebalance(keys)
        assert result.moves == [(10, 2, 1), (9, 1, 2), (30, 2, 3),
                                (17, 1, 0), (21, 1, 0)]
        assert sorted(result.moves) == [
            (entry, old, new) for entry, (old, new)
            in enumerate(zip(table, balancer.table)) if old != new]
        assert balancer.steering_log[-1].moves == tuple(result.moves)
        assert all(balancer.home[entry] == new
                   for entry, _old, new in result.moves)

    def test_flows_move_in_entry_groups(self):
        """Rebalancing rewrites indirection entries, never the hash: a
        key's entry is invariant, only the entry's shard changes."""
        keys = zipf_keys()
        balancer = RssBalancer(4, seed=3)
        entries_before = [balancer.entry_of(k) for k in keys[:100]]
        balancer.rebalance(keys)
        assert [balancer.entry_of(k) for k in keys[:100]] == entries_before

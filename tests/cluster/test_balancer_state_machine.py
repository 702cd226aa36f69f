"""Stateful test: the RSS balancer under failover and rebalancing.

A hypothesis state machine drives an ``RssBalancer`` (2–6 shards, 16–64
indirection entries) through random ``fail_shard``, ``restore_shard``
and ``rebalance(keys, max_moves)`` steps over one fixed, Zipf-skewed key
stream.  Only legal steps are drawn: the last healthy shard is never
failed and a healthy shard is never restored.  After every step:

* every table entry, and so every key's ``shard_of``, names a healthy
  shard;
* ``fail_shard(s)`` moved exactly the entries that were on ``s`` and
  left ``home`` alone;
* ``restore_shard(s)`` moved exactly the entries whose ``home`` is ``s``
  that sat elsewhere, and nothing else;
* ``rebalance`` conserved the total load and did not raise the maximum;
* ``epoch`` rose by one per logged change, and the epochs in
  ``steering_log`` run 1, 2, 3, … without a gap;
* a twin balancer fed the same steps is identical.
"""

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import RssBalancer
from repro.traffic.generator import FlowSet, key_stream

#: The fixed key stream: 64 flows under Zipf skew, so rebalancing finds
#: hot entries to move.
KEYS = key_stream(FlowSet.generate(64, seed=5), 600, zipf_s=1.2, seed=6)
FLOWS = sorted(set(KEYS))


def _state(balancer):
    return (list(balancer.table), list(balancer.home),
            list(balancer.health), balancer.epoch,
            list(balancer.steering_log))


class BalancerMachine(RuleBasedStateMachine):
    @initialize(shards=st.integers(2, 6), table_size=st.integers(16, 64),
                seed=st.integers(0, 2 ** 16))
    def build(self, shards, table_size, seed):
        self.balancer = RssBalancer(shards, table_size=table_size, seed=seed)
        self.twin = RssBalancer(shards, table_size=table_size, seed=seed)
        self.moved = {"fail": 0, "restore": 0, "rebalance": 0}

    def _step(self, call):
        """``call`` on both balancers; the main one's result."""
        balancer = self.balancer
        epoch, logged = balancer.epoch, len(balancer.steering_log)
        result = call(balancer)
        call(self.twin)
        new = len(balancer.steering_log) - logged
        assert new in (0, 1)
        assert balancer.epoch == epoch + new
        return result

    @precondition(lambda self: len(self.balancer.healthy_shards) > 1)
    @rule(pick=st.integers(0, 5))
    def fail(self, pick):
        balancer = self.balancer
        healthy = balancer.healthy_shards
        shard = healthy[pick % len(healthy)]
        table, home = list(balancer.table), list(balancer.home)
        change = self._step(lambda b: b.fail_shard(shard))
        assert balancer.home == home
        assert not balancer.health[shard]
        moves = []
        for entry, (old, new) in enumerate(zip(table, balancer.table)):
            if old == shard:
                assert new != shard
                moves.append((entry, shard, new))
            else:
                assert new == old
        assert (change.kind, change.shard) == ("fail", shard)
        assert change.moves == tuple(moves)
        self.moved["fail"] += len(moves)

    @precondition(lambda self: self.balancer.failed_shards)
    @rule(pick=st.integers(0, 5))
    def restore(self, pick):
        balancer = self.balancer
        failed = balancer.failed_shards
        shard = failed[pick % len(failed)]
        table, home = list(balancer.table), list(balancer.home)
        change = self._step(lambda b: b.restore_shard(shard))
        assert balancer.home == home
        assert balancer.health[shard]
        moves = []
        for entry, (old, new) in enumerate(zip(table, balancer.table)):
            if home[entry] == shard and old != shard:
                assert new == shard
                moves.append((entry, old, shard))
            else:
                assert new == old
        assert (change.kind, change.shard) == ("restore", shard)
        assert change.moves == tuple(moves)
        self.moved["restore"] += len(moves)

    @rule(start=st.integers(0, len(KEYS) - 1),
          length=st.integers(0, len(KEYS)), max_moves=st.integers(0, 8))
    def rebalance(self, start, length, max_moves):
        balancer = self.balancer
        keys = KEYS[start:start + length]
        table, home = list(balancer.table), list(balancer.home)
        before = balancer.shard_loads(keys)
        result = self._step(lambda b: b.rebalance(keys, max_moves))
        assert result.loads_before == before
        assert result.loads_after == balancer.shard_loads(keys)
        assert sum(result.loads_after) == sum(before) == len(keys)
        assert result.max_load_after <= result.max_load_before
        assert len(result.moves) <= max_moves
        moved = {entry: (donor, receiver)
                 for entry, donor, receiver in result.moves}
        for entry, old in enumerate(table):
            if entry in moved:
                assert old == moved[entry][0]
                assert balancer.table[entry] == moved[entry][1]
                assert balancer.home[entry] == balancer.table[entry]
            else:
                assert balancer.table[entry] == old
                assert balancer.home[entry] == home[entry]
        if result.moves:
            assert balancer.steering_log[-1].kind == "rebalance"
        self.moved["rebalance"] += len(result.moves)

    @invariant()
    def every_entry_is_served(self):
        balancer = self.balancer
        assert all(balancer.health[shard] for shard in balancer.table)
        assert all(balancer.health[balancer.shard_of(key)] for key in FLOWS)

    @invariant()
    def epochs_are_consecutive(self):
        log = self.balancer.steering_log
        assert [change.epoch for change in log] == list(
            range(1, len(log) + 1))
        assert self.balancer.epoch == len(log)

    @invariant()
    def twin_matches(self):
        assert _state(self.balancer) == _state(self.twin)


TestBalancerMachine = BalancerMachine.TestCase
TestBalancerMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)


def test_machine_moves_entries_on_every_path():
    """A fixed run shows the machine's checks are not vacuous."""
    rng = random.Random(28)
    machine = BalancerMachine()
    machine.build(shards=4, table_size=32, seed=3)
    for _ in range(300):
        roll = rng.random()
        if roll < 0.3 and len(machine.balancer.healthy_shards) > 1:
            machine.fail(rng.randrange(6))
        elif roll < 0.6 and machine.balancer.failed_shards:
            machine.restore(rng.randrange(6))
        else:
            machine.rebalance(rng.randrange(len(KEYS)),
                              rng.randrange(len(KEYS) + 1),
                              rng.randrange(9))
        machine.every_entry_is_served()
        machine.epochs_are_consecutive()
        machine.twin_matches()
    assert all(machine.moved.values()), machine.moved

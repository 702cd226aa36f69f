"""Stateful test: a 64-slot cuckoo table against a ``dict``.

Eight buckets of eight ways fill up within a few dozen inserts, so
displacement chains and failed inserts are routine here.  Besides the
contents (``len``, ``items()``, ``probe()``) the machine checks the
table's side effects: a failed insert changes nothing, cuckoo kicks and
deletes bump the optimistic-lock version while plain slot claims and
updates do not, and new keys take freed key-value slots last-freed-first
before any never-used one.  A twin table takes every operation one key
at a time; a batch goes to the table through ``insert_many`` and to the
twin through a loop of ``insert``, and the two must then agree on
results, buckets, key-value array, slots, stats and lock version.
"""

import dataclasses
import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    precondition,
    rule,
)

from repro.hashtable import CuckooHashTable

#: 16-byte keys drawn from a 32-bit space: cheap for hypothesis to
#: generate, and the table's hash spreads them like random bytes.
keys_strategy = st.integers(0, 2 ** 32 - 1).map(
    lambda number: number.to_bytes(16, "little"))


class CuckooDictMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = CuckooHashTable(64)
        assert self.table.capacity == 64
        self.model = {}
        # Slot bookkeeping the table must reproduce: freed slots come
        # back last-freed-first, then never-used slots in index order.
        self.freed = []
        self.next_unused = 0
        self.failed_inserts = 0
        self.reused_slots = 0
        self.twin = CuckooHashTable(64)
        self.bulk_failures = 0

    keys = Bundle("keys")

    def _snapshot(self):
        return list(self.table.items()), len(self.table)

    def _slot_of(self, key):
        plan = self.table.probe(key)
        assert plan.found
        return plan.slot

    @rule(target=keys, key=keys_strategy, value=st.integers())
    def insert_new(self, key, value):
        return self._insert(key, value)

    @rule(target=keys, batch=st.lists(keys_strategy, min_size=1, max_size=16))
    def insert_batch(self, batch):
        """Fills the table fast enough to reach kicks and failures."""
        return multiple(*(self._insert(key, len(self.model))
                          for key in batch))

    @precondition(lambda self: self.model)
    @rule(key=keys, value=st.integers())
    def update_or_reinsert(self, key, value):
        self._insert(key, value)

    def _insert(self, key, value):
        table = self.table
        before = self._snapshot()
        version = table.lock.counter
        kicks = table.stats.kicks
        existed = key in self.model
        ok = table.insert(key, value)
        assert self.twin.insert(key, value) == ok
        kicked = table.stats.kicks - kicks
        if not ok:
            assert not existed
            self.failed_inserts += 1
            assert self._snapshot() == before
            assert table.lock.counter == version
            return key
        if kicked:
            assert table.lock.counter > version
        else:
            assert table.lock.counter == version
        if not existed:
            if self.freed:
                expected = self.freed.pop()
                self.reused_slots += 1
            else:
                expected = self._claim_unused()
            assert self._slot_of(key) == expected
        self.model[key] = value
        return key

    @rule(target=keys,
          batch=st.lists(st.one_of(keys, keys_strategy),
                         min_size=1, max_size=24),
          repeats=st.integers(0, 4))
    def insert_many(self, batch, repeats):
        """One batch through ``insert_many`` here and through a loop of
        ``insert`` on the twin; ``repeats`` leading keys come again at
        the end, so the batch updates keys it placed."""
        table = self.table
        pairs = [(key, position)
                 for position, key in enumerate(batch + batch[:repeats])]
        version = table.lock.counter
        kicks = table.stats.kicks
        results = table.insert_many(pairs)
        assert results == [self.twin.insert(key, value)
                           for key, value in pairs]
        self._assert_twin()
        assert (table.lock.counter > version) == (table.stats.kicks > kicks)
        placed = []
        for (key, value), ok in zip(pairs, results):
            if not ok:
                assert key not in self.model
                self.failed_inserts += 1
                self.bulk_failures += 1
                continue
            if key not in self.model:
                if self.freed:
                    expected = self.freed.pop()
                    self.reused_slots += 1
                else:
                    expected = self._claim_unused()
                assert self._slot_of(key) == expected
            self.model[key] = value
            placed.append(key)
        return multiple(*placed)

    def _assert_twin(self):
        table, twin = self.table, self.twin
        assert table._buckets == twin._buckets
        assert table._kv == twin._kv
        assert table._freed_slots == twin._freed_slots
        assert table._next_slot == twin._next_slot
        assert (dataclasses.astuple(table.stats)
                == dataclasses.astuple(twin.stats))
        assert table.lock.counter == twin.lock.counter

    def _claim_unused(self):
        slot = self.next_unused
        self.next_unused += 1
        return slot

    @rule(key=keys)
    def delete(self, key):
        table = self.table
        version = table.lock.counter
        present = key in self.model
        slot = self._slot_of(key) if present else None
        assert table.delete(key) == present
        assert self.twin.delete(key) == present
        if present:
            assert table.lock.counter > version
            self.freed.append(slot)
            del self.model[key]
        else:
            assert table.lock.counter == version

    @rule(key=st.one_of(keys, keys_strategy))
    def lookup(self, key):
        assert self.table.lookup(key) == self.model.get(key)
        assert self.twin.lookup(key) == self.model.get(key)
        plan = self.table.probe(key)
        assert plan.found == (key in self.model)
        assert plan.value == self.model.get(key)

    @invariant()
    def contents_match(self):
        assert len(self.table) == len(self.model)
        items = list(self.table.items())
        assert len(items) == len(self.model)
        assert dict(items) == self.model


TestCuckooDictMachine = CuckooDictMachine.TestCase
TestCuckooDictMachine.settings = settings(
    max_examples=60, stateful_step_count=120, deadline=None)


def test_machine_reaches_kicks_and_failed_inserts():
    """A fixed long run shows the machine's paths are not vacuous."""
    rng = random.Random(64)
    machine = CuckooDictMachine()
    live = []
    for step in range(3000):
        roll = rng.random()
        if live and roll < 0.2:
            key = live.pop(rng.randrange(len(live)))
            machine.delete(key)
        elif live and roll < 0.3:
            machine.update_or_reinsert(rng.choice(live), step)
        elif live and roll < 0.4:
            batch = [rng.choice(live)] + [rng.randbytes(16)
                                          for _ in range(rng.randrange(8))]
            machine.insert_many(batch, rng.randrange(3))
            live.extend(key for key in batch
                        if key in machine.model and key not in live)
        else:
            key = rng.randbytes(16)
            machine.insert_new(key, step)
            if key in machine.model:
                live.append(key)
        machine.contents_match()
    assert machine.table.stats.kicks > 0
    assert machine.failed_inserts > 0
    assert machine.reused_slots > 0
    assert machine.bulk_failures > 0

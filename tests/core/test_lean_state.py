"""Model state costs no Python object per table entry or cached line.

Cache line states are ints, cuckoo bucket entries are packed ints, free
key-value slots are a counter, and the shared trace router drops what is
recorded outside a capture.  Building and warming a table therefore grows
the garbage collector's tracked objects by one list per bucket and one
``OrderedDict`` per touched cache set, plus a constant.
"""

import gc

from repro.core import HaloSystem

from ..conftest import make_keys

#: Objects a table build may add beyond its buckets and touched sets (the
#: table, its layout, regions, stats and memo dicts).
CONSTANT_SLACK = 300


def tracked_objects():
    gc.collect()
    return len(gc.get_objects())


def test_build_and_warm_grows_by_buckets_and_touched_sets():
    system = HaloSystem()
    hierarchy = system.hierarchy
    caches = hierarchy.l1 + hierarchy.l2 + hierarchy.llc
    keys = make_keys(8192, seed=21)
    before = tracked_objects()
    table = system.create_table(1 << 14)
    for index, key in enumerate(keys):
        assert table.insert(key, index)
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    grown = tracked_objects() - before

    touched_sets = sum(len(cache._sets) for cache in caches)
    resident_lines = sum(cache.resident_lines for cache in caches)
    assert grown <= table.num_buckets + touched_sets + CONSTANT_SLACK
    # The bound is tight enough to catch one object per entry or per line.
    assert len(table) > 2 * CONSTANT_SLACK
    assert resident_lines > 2 * CONSTANT_SLACK

"""Machine parameter sets (paper Table 2)."""

import pytest

from repro.sim import CacheParams, MachineParams, SKYLAKE_SP_16C, TINY_MACHINE

KB = 1024
MB = 1024 * KB


def test_table2_configuration():
    machine = SKYLAKE_SP_16C
    assert machine.cores == 16
    assert machine.llc_slices == 16
    assert machine.core.frequency_ghz == 2.1
    assert machine.l1d.size_bytes == 32 * KB and machine.l1d.associativity == 8
    assert machine.l2.size_bytes == 1 * MB and machine.l2.associativity == 16
    assert machine.llc_total_bytes == 32 * MB
    assert machine.llc_slice.associativity == 16


def test_halo_configuration_matches_paper():
    halo = SKYLAKE_SP_16C.halo
    assert halo.scoreboard_entries == 10      # §4.7: 10 on-the-fly queries
    assert halo.metadata_cache_tables == 10   # §4.7: 10 tables (640B)
    assert halo.hash_issue_interval == 1      # fully pipelined hash unit


def test_latency_ordering():
    latency = SKYLAKE_SP_16C.latency
    assert latency.l1_hit < latency.l2_hit < latency.llc_hit < latency.dram
    assert latency.cha_llc_hit < latency.llc_hit
    assert latency.cha_dram < latency.dram


def test_paper_latency_ratios():
    """The ratios behind Figure 10's data-access claims."""
    latency = SKYLAKE_SP_16C.latency
    assert 3.0 <= latency.llc_hit / latency.cha_llc_hit <= 9.0
    assert 1.3 <= latency.dram / latency.cha_dram <= 2.0


def test_cache_num_sets():
    params = CacheParams(32 * KB, 8)
    assert params.num_sets == 64


@pytest.mark.parametrize("kwargs, field", [
    ({"associativity": 0}, "associativity"),
    ({"associativity": -8}, "associativity"),
    ({"line_bytes": 0}, "line_bytes"),
    ({"size_bytes": 33_000}, "size_bytes"),   # not whole sets
    ({"size_bytes": 0}, "size_bytes"),
    ({"size_bytes": 256}, "size_bytes"),      # less than one set
], ids=["assoc-0", "assoc-negative", "line-0", "partial-set", "size-0",
        "under-one-set"])
def test_cache_geometry_must_tile(kwargs, field):
    # Unchecked, associativity=0 or line_bytes=0 dies in a bare
    # ZeroDivisionError while a HaloSystem builds its caches, and 33000
    # bytes silently becomes a 64-set, 32 KiB L1D.
    geometry = {"size_bytes": 32 * KB, "associativity": 8, "line_bytes": 64}
    geometry.update(kwargs)
    with pytest.raises(ValueError, match=rf"CacheParams\.{field} "):
        CacheParams(**geometry)


def test_scaled_override():
    machine = SKYLAKE_SP_16C.scaled(cores=8)
    assert machine.cores == 8
    assert machine.llc_slices == 16         # untouched
    assert SKYLAKE_SP_16C.cores == 16       # original frozen


def test_tiny_machine_is_consistent():
    assert TINY_MACHINE.cores == 2
    assert TINY_MACHINE.llc_slices == 2
    assert TINY_MACHINE.l1d.num_sets >= 1

"""Every experiment module runs end to end (scaled down) and reports."""

import pytest

from repro.analysis.experiments import (
    fig03_breakdown,
    fig04_hash,
    fig08_flow_register,
    fig09_single_lookup,
    fig10_breakdown,
    fig11_tuple_space,
    fig12_collocation,
    fig13_nf_speedup,
    tab01_instructions,
    tab04_power,
)
from repro.traffic import FIGURE3_PROFILES


def test_fig03_single_profile():
    row = fig03_breakdown.run_profile(FIGURE3_PROFILES[0],
                                      max_flows=3000, packets=150,
                                      warmup=100)
    assert 150 < row.cycles_per_packet < 3000
    assert 0.0 < row.classification_fraction < 1.0
    assert row.breakdown["packet_io"] > 0


def test_fig03_report_renders():
    rows = [fig03_breakdown.run_profile(profile, max_flows=2000,
                                        packets=100, warmup=80)
            for profile in FIGURE3_PROFILES[:2]]
    text = fig03_breakdown.report(rows)
    assert "Figure 3" in text and "paper" in text


def test_fig04_runs():
    rows = fig04_hash.run(flow_counts=(500, 4000), lookups=200)
    assert len(rows) == 4
    text = fig04_hash.report(rows)
    assert "Figure 4" in text
    cuckoo = [r for r in rows if r.table_kind == "cuckoo"]
    sfh = [r for r in rows if r.table_kind == "sfh"]
    # Cuckoo packs much denser than SFH at every size.
    for c_row, s_row in zip(cuckoo, sfh):
        assert c_row.utilisation > s_row.utilisation * 2


def _fig04_rows(flow_counts, sfh_llc_mpkl):
    return [fig04_hash.Fig4Row(kind, count, 0.5, 1.0,
                               sfh_llc_mpkl if kind == "sfh" else 0.1,
                               0.5, 200.0)
            for count in flow_counts for kind in ("cuckoo", "sfh")]


def _sfh_cliff_line(text):
    return next(line for line in text.splitlines()
                if "SFH LLC misses from 100K flows" in line)


def test_fig04_quick_grid_does_not_judge_the_100k_cliff():
    # The quick grid stops at 10K flows: the 100K check is not measured,
    # so it must neither hold nor diverge.
    line = _sfh_cliff_line(fig04_hash.report(
        _fig04_rows((1_000, 10_000), sfh_llc_mpkl=0.0)))
    assert line.endswith("measured not run: grid stops at 10000 flows")
    assert "DIVERGES" not in line and "shape holds" not in line


def test_fig04_full_grid_judges_the_100k_row():
    line = _sfh_cliff_line(fig04_hash.report(
        _fig04_rows((10_000, 100_000, 400_000), sfh_llc_mpkl=12.0)))
    assert line.endswith("measured 12.0 MPKL  [shape holds]")


def test_fig04_achievable_occupancy():
    assert fig04_hash.achievable_occupancy("cuckoo", slots=2048) > 0.85
    assert fig04_hash.achievable_occupancy("sfh", slots=2048) < 0.45


def test_tab01_runs():
    result = tab01_instructions.run(lookups=100, table_entries=1 << 12)
    assert abs(result.instructions_per_lookup - 210) < 30
    assert abs(result.memory_fraction - 0.481) < 0.05
    assert "Table 1" in tab01_instructions.report(result)


def test_fig08_runs():
    points = fig08_flow_register.run(bit_sizes=(16, 32), trials=5)
    assert len(points) == 8
    assert "Figure 8b" in fig08_flow_register.report(points)


def test_fig09_point():
    point = fig09_single_lookup.run_point(2 ** 12, occupancy=0.5,
                                          lookups=80)
    normalized = point.normalized_throughput()
    assert normalized["software"] == 1.0
    assert normalized["halo-b"] > 1.0
    assert normalized["tcam"] > normalized["halo-b"]
    text = fig09_single_lookup.report([point])
    assert "Figure 9" in text


def test_fig10_runs():
    cells = fig10_breakdown.run(table_entries=1 << 12, lookups=40)
    assert set(cells) == {"llc/software", "llc/halo",
                          "dram/software", "dram/halo"}
    assert cells["dram/software"].total > cells["llc/software"].total
    assert cells["llc/halo"].total < cells["llc/software"].total
    assert "Figure 10" in fig10_breakdown.report(cells)


def test_fig11_runs():
    points = fig11_tuple_space.run(tuple_counts=(5, 10), packets=10)
    assert points[1].normalized_throughput()["halo-nb"] > 1.0
    assert "Figure 11" in fig11_tuple_space.report(points)


def test_fig12_single_cell():
    results = fig12_collocation.run(flow_counts=(2000,),
                                    packets=100, warmup=100,
                                    nf_names=("acl",))
    assert len(results) == 2
    assert "Figure 12" in fig12_collocation.report(results)


def test_fig13_single_row():
    row = fig13_nf_speedup.run_one("nat", 1000, packets=60)
    assert row.speedup > 1.2
    rows = [row,
            fig13_nf_speedup.run_one("prads", 1000, packets=60),
            fig13_nf_speedup.run_one("pktfilter", 100, packets=60)]
    assert "Figure 13" in fig13_nf_speedup.report(rows)


def test_tab04_runs():
    result = tab04_power.run()
    assert result.efficiency_vs_1mb_tcam == pytest.approx(48.2, abs=0.1)
    assert "Table 4" in tab04_power.report(result)


def test_updates_comparison_runs():
    from repro.analysis.experiments import updates_comparison
    result = updates_comparison.run(updates=300)
    assert result.tcam_mean_cycles > result.cuckoo_mean_cycles
    assert "rule updates" in updates_comparison.report(result)


def test_multicore_scaling_runs():
    from repro.analysis.experiments import multicore_scaling
    points = multicore_scaling.run(core_counts=(1, 4), packets_per_core=6)
    assert points[1].halo_packets_per_kcycle > points[0].halo_packets_per_kcycle * 2
    assert all(p.halo_speedup > 2.0 for p in points)
    assert "Multi-core" in multicore_scaling.report(points)


def test_keysize_sweep_runs():
    from repro.analysis.experiments import keysize_sweep
    points = keysize_sweep.run(key_sizes=(8, 64), table_entries=1 << 12,
                               lookups=60)
    assert all(p.speedup > 1.5 for p in points)
    assert "header" in keysize_sweep.report(points)

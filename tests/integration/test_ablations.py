"""Shape tests for the three ablations, on their full grids.

The ablations (§4.2 page size, §4.7 design knobs, §5 software prefetch)
make no paper claim, so their expected shapes are asserted here rather
than as ``PaperCheck`` lines in their reports.  Each test runs the
experiment's full grid, uncached, through the same path as
``python -m repro run``; together they take a few seconds.
"""

from repro.runner import run_for_bench


def test_ablation_halo_design():
    payloads, _report = run_for_bench("abl_design")

    by_depth = dict(payloads["scoreboard"])
    assert by_depth[1] > by_depth[10] * 0.99
    assert by_depth[20] > by_depth[10] * 0.8

    by_count = dict(payloads["accelerators"])
    assert by_count[2] > by_count[16]

    metadata_rows = payloads["metadata_cache"]
    assert metadata_rows[-1][2] >= metadata_rows[0][2]

    by_interval = dict(payloads["hash_pipeline"])
    assert by_interval[3] >= by_interval[1]


def test_ablation_software_prefetch():
    payloads, _report = run_for_bench("abl_prefetch")
    costs = dict(payloads["default"])
    serial = costs["software serial"]
    assert costs["software bulk x8"] < serial
    assert costs["HALO LOOKUP_B"] < serial / 2


def test_ablation_tlb_page_size():
    payloads, _report = run_for_bench("abl_tlb")
    rows = payloads["default"]
    software_by_name = {name: software for name, software, _halo, _m in rows}
    assert (software_by_name["4KB pages"]
            > software_by_name["2MB hugepages (DPDK)"] * 1.1)
    halo_costs = [halo for _name, _software, halo, _miss in rows]
    assert max(halo_costs) - min(halo_costs) < 5.0

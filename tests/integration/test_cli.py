"""The `python -m repro` experiment runner and bench CLI."""

import json

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_default_is_list(capsys):
    assert main([]) == 0
    assert "experiments" in capsys.readouterr().out


def test_registry_covers_all_eval_items():
    expected = {"fig03", "fig04", "fig08", "fig09", "fig10", "fig11",
                "fig12", "fig13", "tab01", "tab04", "sec34", "updates",
                "multicore", "keysize", "abl_tlb", "abl_prefetch",
                "abl_design", "degradation", "scaling_law", "cache_churn",
                "cluster_chaos"}
    assert set(EXPERIMENTS) == expected


def test_run_quick_tab04(capsys):
    assert main(["run", "tab04"]) == 0
    out = capsys.readouterr().out
    assert "48.2" in out


def test_run_quick_fig08(capsys):
    assert main(["run", "fig08", "--quick"]) == 0
    assert "Figure 8b" in capsys.readouterr().out


def test_run_quick_tab01(capsys):
    assert main(["run", "tab01", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "instructions/lookup" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_bench_quick_tab04_writes_json(tmp_path, capsys):
    json_path = tmp_path / "summary.json"
    assert main(["bench", "--only", "tab04", "--quick", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "bench summary:" in out
    payload = json.loads(json_path.read_text())
    assert payload["reports"]["tab04"]["slug"] == "tab04_power_area"
    assert payload["runs"][0]["experiment"] == "tab04"
    assert "runner.cache.misses" in payload["metrics"]


def test_bench_cache_hit_on_second_invocation(tmp_path, capsys):
    args = ["bench", "--only", "tab04", "--quick", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert "1 cache hits" in capsys.readouterr().out


def test_bench_unknown_name_is_an_error(tmp_path, capsys):
    code = main(["bench", "--only", "fig99", "--quick",
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'fig99'" in err


def test_bench_writes_report_files(tmp_path, capsys):
    reports = tmp_path / "reports"
    assert main(["bench", "--only", "tab04", "--quick", "--jobs", "1",
                 "--no-cache", "--reports", str(reports)]) == 0
    assert (reports / "tab04_power_area.txt").exists()


@pytest.mark.parametrize("flag, value, allowed", [
    ("--jobs", "0", ">= 1"),
    ("--jobs", "-2", ">= 1"),
    ("--retries", "-1", ">= 0"),
    ("--timeout", "0", "> 0"),
    ("--timeout", "-3", "> 0"),
])
def test_bench_rejects_out_of_range_numbers(tmp_path, capsys, flag, value,
                                            allowed):
    # Each would otherwise be misread: jobs <= 0 runs inline but records
    # the bad count, retries -1 acts as 0, timeout 0 means no deadline
    # and a negative one kills every run.
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--only", "tab04", "--quick",
              "--cache-dir", str(cache), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err
    assert allowed in err
    assert not cache.exists()


def test_bench_reports_rejects_an_existing_file(tmp_path, capsys):
    # Checked at parse time: the campaign never runs, and the error
    # names the path instead of ending the run in a mkdir traceback.
    not_a_dir = tmp_path / "reports.txt"
    not_a_dir.write_text("")
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--only", "tab04", "--quick",
              "--cache-dir", str(cache), "--reports", str(not_a_dir)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --reports:" in err
    assert str(not_a_dir) in err
    assert not cache.exists()

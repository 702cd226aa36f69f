"""The ``python -m repro report`` CLI: the per-component breakdown it
prints and the JSON export it writes."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture(scope="module")
def report_output(tmp_path_factory):
    json_path = tmp_path_factory.mktemp("report") / "obs.json"
    import contextlib
    import io
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(["report", "--quick", "--json", str(json_path)])
    return code, stream.getvalue(), json_path


def test_report_cli_prints_component_breakdown(report_output):
    code, out, _path = report_output
    assert code == 0
    assert "HaloSystem metrics" in out
    assert "components:" in out
    # every instrumented layer shows up
    for component in ("halo", "mem", "vswitch"):
        assert f"\n{component}" in out or out.startswith(component)
    assert "span trees recorded" in out


def test_report_cli_writes_json_export(report_output):
    _code, _out, path = report_output
    export = json.loads(path.read_text(encoding="utf-8"))
    assert export.keys() == {"metrics", "spans"}
    assert export["metrics"]["vswitch.packets"] > 0
    assert export["spans"], "per-query span trees exported"

"""Analysis reporting and breakdown helpers."""

from repro.analysis import (
    FIG3_STAGES,
    PaperCheck,
    format_table,
    per_packet,
    percent_str,
    ratio_str,
    render_checks,
    render_stacked,
)
from repro.sim.stats import Breakdown


def test_format_table_alignment():
    text = format_table(["name", "value"],
                        [("alpha", 1.5), ("b", 12345.0)], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[2].startswith("-")       # separator row
    assert "alpha" in lines[3]
    assert "12,345" in text


def test_format_table_float_rendering():
    text = format_table(["v"], [(0.123,), (42.5,), (9999.0,)])
    assert "0.12" in text
    assert "42.5" in text
    assert "9,999" in text


def test_paper_check_rendering():
    ok = PaperCheck("metric", "3.3x", "3.1x", holds=True)
    bad = PaperCheck("metric", "3.3x", "0.5x", holds=False)
    neutral = PaperCheck("metric", "3.3x", "3.1x")
    assert "[shape holds]" in ok.render()
    assert "[DIVERGES]" in bad.render()
    assert "[" not in neutral.render()
    block = render_checks("Fig X", [ok, bad])
    assert block.startswith("paper-vs-measured — Fig X")


def test_ratio_and_percent_strings():
    assert ratio_str(3.296) == "3.30x"
    assert percent_str(0.481) == "48.1%"


def test_per_packet_scaling():
    breakdown = Breakdown({"a": 100.0})
    scaled = per_packet(breakdown, 10)
    assert scaled["a"] == 10.0
    assert per_packet(breakdown, 0).total == 0.0


def test_render_stacked_totals():
    rows = {"cfg": Breakdown({"packet_io": 10.0, "others": 5.0})}
    text = render_stacked(rows, FIG3_STAGES, title="X")
    assert "cfg" in text
    assert "15" in text.splitlines()[-1]

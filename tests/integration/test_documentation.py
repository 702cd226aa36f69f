"""Documentation stays consistent with the code."""

import ast
import importlib
import pathlib
import re

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]

#: Regex a paper-citing docstring must match somewhere.
PAPER_CITATION = re.compile(r"Figure \d+|Table \d+|§\d")


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/MODELING.md", "docs/EXPERIMENTS.md",
                 "docs/ARCHITECTURE.md"):
        path = ROOT / name
        assert path.exists(), name
        assert path.stat().st_size > 1_000


def test_design_lists_every_experiment_bench():
    """DESIGN.md's experiment table names the ``repro bench`` experiment
    behind each paper figure and table it lists."""
    from repro.runner import discover

    text = (ROOT / "DESIGN.md").read_text()
    specs = discover()
    for name in ("fig03", "fig04", "tab01", "fig08", "fig09", "fig10",
                 "fig11", "fig12", "tab04", "fig13"):
        assert name in specs, name
        assert f"`{name}`" in text, name


def test_readme_quickstart_snippet_runs():
    """The README's quickstart code block must actually execute."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"```python\n(.*?)```", text, re.DOTALL)
    assert match, "README lost its quickstart snippet"
    namespace = {}
    exec(compile(match.group(1), "<README quickstart>", "exec"), namespace)


def test_every_public_module_has_a_docstring():
    missing = []
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        source = path.read_text()
        if not source.strip():
            continue
        module = ast.parse(source)
        if ast.get_docstring(module) is None:
            missing.append(str(path))
    assert missing == []


def test_every_experiment_module_docstring_names_its_artifact():
    """Each experiment's docstring must cite the figure/table/section it
    reproduces, so ``docs/EXPERIMENTS.md`` never drifts from the code."""
    from repro.analysis import experiments

    for short_name in experiments.__all__:
        module = importlib.import_module(
            f"repro.analysis.experiments.{short_name}")
        doc = module.__doc__ or ""
        assert PAPER_CITATION.search(doc), \
            f"{short_name} docstring cites no paper artifact"


def test_runner_modules_cite_the_paper():
    for short_name in ("", ".schema", ".cache", ".registry", ".scheduler"):
        module = importlib.import_module(f"repro.runner{short_name}")
        doc = module.__doc__ or ""
        assert PAPER_CITATION.search(doc), \
            f"repro.runner{short_name} docstring cites no paper artifact"


def test_experiment_artifacts_match_their_docstrings():
    """A spec's declared artifact must appear in (or be consistent with)
    its module's docstring — the registry cannot invent citations."""
    from repro.runner import discover

    for spec in discover().values():
        module = importlib.import_module(spec.module)
        doc = module.__doc__ or ""
        anchor = re.search(r"Figure \d+|Table \d+|§\d+(\.\d+)?",
                           spec.artifact)
        assert anchor, f"{spec.name} artifact {spec.artifact!r} cites " \
                       f"no figure/table/section"
        assert anchor.group(0) in doc, \
            f"{spec.name}: artifact {anchor.group(0)!r} not in docstring"


def test_cli_registry_matches_experiment_modules():
    from repro.__main__ import EXPERIMENTS
    from repro.runner import discover

    specs = discover()
    assert set(EXPERIMENTS) == set(specs)
    from repro.analysis import experiments
    module_names = set(experiments.__all__)
    for spec in specs.values():
        assert spec.module.rsplit(".", 1)[1] in module_names


def test_experiments_catalog_lists_every_experiment():
    """docs/EXPERIMENTS.md carries one catalog row per registry entry."""
    from repro.runner import discover

    text = (ROOT / "docs" / "EXPERIMENTS.md").read_text()
    for name, spec in discover().items():
        assert f"`{name}`" in text, f"{name} missing from docs/EXPERIMENTS.md"
        assert spec.module.rsplit(".", 1)[1] in text, spec.module


def test_committed_reports_match_the_registry_and_hold():
    """``benchmarks/reports`` holds exactly one report per registry
    experiment, and no paper check in any of them diverges.  CI
    regenerates these files byte for byte from the full campaign, so
    together that means every full-grid claim holds."""
    from repro.runner import discover

    reports = ROOT / "benchmarks" / "reports"
    slugs = [spec.slug for spec in discover().values()]
    assert len(set(slugs)) == len(slugs)
    assert sorted(path.name for path in reports.iterdir()) \
        == sorted(f"{slug}.txt" for slug in slugs)
    diverging = [f"{path.name}: {line.strip()}"
                 for path in sorted(reports.iterdir())
                 for line in path.read_text().splitlines()
                 if "[DIVERGES]" in line]
    assert diverging == []


#: EXPERIMENTS.md sections whose measured numbers are quoted from a
#: committed report: section heading -> report file.
QUOTED_REPORTS = {
    "## Figure 3 ": "fig03_breakdown.txt",
    "## Figure 9 ": "fig09_single_lookup.txt",
    "## Figure 10 ": "fig10_latency_breakdown.txt",
}

#: A number in a measured cell, with its unit (``×``, ``%`` or none);
#: ``2^N`` is read as the power of two it names.
QUOTED_NUMBER = re.compile(r"(?<![\d.^])(\d+(?:\.\d+)?)(?:\^(\d+))?([×%]?)")

#: The left end of a ``a–b×`` or ``a → b%`` range, which takes the unit
#: written after the right end.
RANGE_START = re.compile(r"(\d+(?:\.\d+)?)(\s*[–→]\s*\d+(?:\.\d+)?([×%]))")


def _section(text, heading):
    start = text.index(heading)
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def _quoted_in(figure, report):
    """Whether ``figure`` (a number with an optional ``x``/``%`` unit)
    appears in ``report`` as a whole number, not inside a longer one."""
    tail = "" if figure[-1] in "x%" else r"(?!\.?\d)"
    return re.search(r"(?<![\d.])" + re.escape(figure) + tail, report)


@pytest.mark.parametrize("heading", sorted(QUOTED_REPORTS))
def test_experiments_md_quotes_the_committed_report(heading):
    """Every number in the measured column of EXPERIMENTS.md's Figure 3,
    9 and 10 tables appears in that figure's committed report (reading ×
    as x, 2^N as its value, and the left end of a range with the unit of
    its right end), and each line of the section's report excerpt is a
    line of the report, so hand-copied numbers cannot drift."""
    section = _section((ROOT / "EXPERIMENTS.md").read_text(), heading)
    report = (ROOT / "benchmarks" / "reports"
              / QUOTED_REPORTS[heading]).read_text()

    measured = [row.strip().strip("|").split("|")[-1]
                for row in section.splitlines()
                if row.startswith("|") and not row.startswith("|---")]
    figures = [(str(2 ** int(power)) if power else number)
               + unit.replace("×", "x")
               for cell in measured
               for number, power, unit in QUOTED_NUMBER.findall(
                   RANGE_START.sub(r"\1\3\2", cell))]
    assert figures, f"{heading.strip()}: no measured numbers found"
    missing = [figure for figure in figures
               if not _quoted_in(figure, report)]
    assert not missing, (f"{heading.strip()}: {missing} not in "
                         f"{QUOTED_REPORTS[heading]}")

    report_lines = {line.rstrip() for line in report.splitlines()}
    excerpts = re.findall(r"```\n(.*?)```", section, re.DOTALL)
    stale = [line for excerpt in excerpts
             for line in excerpt.splitlines()
             if line.rstrip() not in report_lines]
    assert not stale, (f"{heading.strip()}: excerpt lines not in "
                       f"{QUOTED_REPORTS[heading]}: {stale}")


def test_modeling_fault_table_lists_exactly_the_fault_kinds():
    """MODELING §8's kind table names every ``FaultKind`` and nothing
    else, so a kind cannot be added or deleted without the table."""
    from repro.faults import FaultKind

    text = (ROOT / "docs" / "MODELING.md").read_text()
    section = text.split("### Fault kinds and their seams", 1)[1]
    section = section.split("\n### ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert rows, "MODELING §8 lost its fault kind table"
    assert sorted(rows) == sorted(kind.value for kind in FaultKind)

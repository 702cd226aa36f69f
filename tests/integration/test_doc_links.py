"""Relative links in the markdown docs must point at real files.

Mirrors the CI docs job: a renamed file or a typo in a link shows up
here instead of as a 404 on the repo page.
"""

import pathlib
import re

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]

#: ``[text](target)`` — the same inline-link shape the CI job checks.
LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

DOC_FILES = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md",
             *sorted((ROOT / "docs").glob("*.md"))]


def _relative_targets(path):
    for match in LINK.finditer(path.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


def test_docs_are_present():
    assert (ROOT / "README.md").exists()
    assert len(DOC_FILES) >= 3  # README + MODELING + the new docs


def test_relative_markdown_links_resolve():
    broken = []
    for doc in DOC_FILES:
        for target in _relative_targets(doc):
            if not (doc.parent / target).exists():
                broken.append(f"{doc.relative_to(ROOT)} -> {target}")
    assert broken == []


def test_architecture_is_cross_linked():
    """README and MODELING both point readers at the architecture map."""
    assert "ARCHITECTURE.md" in (ROOT / "README.md").read_text()
    assert "ARCHITECTURE.md" in (ROOT / "docs" / "MODELING.md").read_text()

"""Every document a module under ``src/`` or a document points its reader to exists.

Docstrings, comments, ``README.md`` and ``docs/*.md`` send the reader to
the repository's documents by name (``docs/DEVIATIONS.md``,
``docs/EXPERIMENTS.md``, ``SNIPPETS.md``).  A
name with a directory is resolved from the repository root; a bare name must
be a document at the root or under ``docs/``.  Only the documents' own
naming (an upper-case stem) counts: ``comparison.md`` in a command-line
example names an output file, not a reference.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[A-Z][A-Z0-9_-]*\.md)\b")


def _resolves(name: str) -> bool:
    if "/" in name:
        return (ROOT / name).is_file()
    return (ROOT / name).is_file() or (ROOT / "docs" / name).is_file()


def _missing(paths):
    missing = []
    for path in paths:
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for name in REFERENCE.findall(line):
                if not _resolves(name):
                    missing.append(f"{path.relative_to(ROOT)}:{number}: {name}")
    return "documents named but not in the repository:\n" + "\n".join(missing) if missing else ""


def test_every_markdown_document_named_under_src_exists():
    assert not _missing(sorted((ROOT / "src").rglob("*.py")))


def test_every_markdown_document_named_in_the_docs_exists():
    assert not _missing([ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))])


def test_the_pattern_sees_bare_and_directory_names():
    assert REFERENCE.findall("see DESIGN.md and docs/DEVIATIONS.md, not comparison.md") == [
        "DESIGN.md",
        "docs/DEVIATIONS.md",
    ]

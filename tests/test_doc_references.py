"""Every document or benchmark a module under ``src/`` or a document points its reader to exists.

Docstrings, comments, ``README.md`` and ``docs/*.md`` send the reader to
the repository's documents by name (``docs/DEVIATIONS.md``,
``docs/EXPERIMENTS.md``, ``SNIPPETS.md``).  A
name with a directory is resolved from the repository root; a bare name must
be a document at the root or under ``docs/``.  Only the documents' own
naming (an upper-case stem) counts: ``comparison.md`` in a command-line
example names an output file, not a reference.

They, and the verify notes under ``.claude/skills/``, also name benchmark
modules (``bench_e17_pipeline.py``); each must be a file under
``benchmarks/``, whatever directory the name is written with.  And they
name ROADMAP items (``ROADMAP item 6b``, ``ROADMAP items 8 and 10``); each
must still be one of ROADMAP.md's open items, and a lettered part
(``6b``) must be one that item still names (``(b)``).  A retired item's
number is never reused, so a reference to it is stale.  So too with
experiments: each ``E<n>`` they name must be a registered experiment id or
the number of a ``benchmarks/bench_e<nn>_*.py`` (E15-E17 are bench-only).
"""

import re
from pathlib import Path

from repro.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[A-Z][A-Z0-9_-]*\.md)\b")
BENCH = re.compile(r"\b(bench_\w+\.py)\b")
ITEMS = re.compile(r"ROADMAP\s+items?\s+(\d+[a-z]?(?:(?:,\s*|\s+and\s+|\s+or\s+)\d+[a-z]?)*)")
ITEM_NUMBER = re.compile(r"(\d+)([a-z]?)")
EXPERIMENT = re.compile(r"\b[Ee](\d+)\b")
BENCHED = re.compile(r"bench_e(\d+)_\w+\.py")
#: Where benchmark modules, experiments and ROADMAP items are named: the documents, the verify notes and ``src/``.
NAMING = (
    [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")), ROOT / ".claude/skills/verify/SKILL.md"]
    + sorted((ROOT / "src").rglob("*.py"))
)


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


def _missing_benches(paths):
    missing = [
        f"{path}:{number}: {name}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for name in BENCH.findall(line)
        if not (ROOT / "benchmarks" / name).is_file()
    ]
    return "benchmarks named but not under benchmarks/:\n" + "\n".join(missing) if missing else ""


def test_every_benchmark_named_in_the_docs_and_under_src_exists():
    assert not _missing_benches(NAMING)


def test_a_benchmark_name_that_is_not_under_benchmarks_is_reported(tmp_path):
    note = tmp_path / "note.md"
    note.write_text("run benchmarks/bench_e17_pipeline.py::test_e17_pipeline_arena\n"
                    "not `bench_e99_retired.py`\n")
    assert _missing_benches([note]) == (
        f"benchmarks named but not under benchmarks/:\n{note}:2: bench_e99_retired.py"
    )


def _open_items(roadmap: str):
    """Open item number -> its text, from ROADMAP.md's ``## Open items`` section."""
    section = roadmap.split("\n## Open items", 1)[1]
    heads = list(re.finditer(r"^- \*\*(\d+)\. ", section, re.MULTILINE))
    ends = [head.start() for head in heads[1:]] + [len(section)]
    return {head.group(1): section[head.start() : end] for head, end in zip(heads, ends)}


def _stale_items(paths, roadmap: str):
    items = _open_items(roadmap)
    stale = []
    for path in paths:
        text = path.read_text()
        for match in ITEMS.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            for number, part in ITEM_NUMBER.findall(match.group(1)):
                body = items.get(number)
                if body is None or (part and f"({part})" not in body):
                    stale.append(f"{path}:{line}: ROADMAP item {number}{part}")
    return "ROADMAP items named but not open:\n" + "\n".join(stale) if stale else ""


def test_every_roadmap_item_named_in_the_docs_and_under_src_is_open():
    assert not _stale_items(NAMING, (ROOT / "ROADMAP.md").read_text())


def test_a_retired_roadmap_item_is_reported(tmp_path):
    note = tmp_path / "note.md"
    note.write_text("see ROADMAP item 8 and (ROADMAP\nitems 6b and 14), not ROADMAP item 6z\n")
    assert _stale_items([note], (ROOT / "ROADMAP.md").read_text()) == (
        f"ROADMAP items named but not open:\n{note}:1: ROADMAP item 14\n{note}:2: ROADMAP item 6z"
    )


def _stale_experiments(paths):
    benched = (BENCHED.fullmatch(path.name) for path in (ROOT / "benchmarks").iterdir())
    live = {int(name[1:]) for name in EXPERIMENTS} | {int(match.group(1)) for match in benched if match}
    stale = [
        f"{path}:{number}: E{experiment}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for experiment in EXPERIMENT.findall(line)
        if int(experiment) not in live
    ]
    return "experiments named but neither registered nor benched:\n" + "\n".join(stale) if stale else ""


def test_every_experiment_named_in_the_docs_and_under_src_exists():
    assert not _stale_experiments(NAMING)


def test_a_retired_experiment_number_is_reported(tmp_path):
    note = tmp_path / "note.md"
    note.write_text("run E1 --quick or e5, and the E15-E17 arenas\nnot `run E13` nor E99\n")
    assert _stale_experiments([note]) == (
        f"experiments named but neither registered nor benched:\n{note}:2: E13\n{note}:2: E99"
    )

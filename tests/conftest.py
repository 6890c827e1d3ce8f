"""Tier-1 runs Hypothesis derandomized and without an example database.

A property test then draws the same examples on every machine and every
run, so a red tier-1 is reproducible from the log alone and never depends
on what a git-ignored ``.hypothesis/`` directory happens to hold.  The
per-file ``settings(max_examples=..., deadline=...)`` objects are created
after this profile is loaded and inherit it.  The random-search budget
belongs to the ``-m fuzz`` lane (ROADMAP item 5), not here.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

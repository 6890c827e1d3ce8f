"""Deterministic random-number helpers.

All randomized components of the reproduction (skip list coin flips, AMF
sampling, workload generation, membership vectors of the static baseline)
take an explicit :class:`random.Random` instance so that experiments are
reproducible from a single seed.  These helpers centralise construction and
the derivation of independent child generators.
"""

from __future__ import annotations

import random

__all__ = ["make_rng", "spawn_rng", "spawn_seed"]

#: Default seed used across the test-suite and the experiment harness when a
#: caller does not provide one.  Chosen arbitrarily; fixed for determinism.
DEFAULT_SEED = 20170403  # arXiv submission date of the paper (3 Apr 2017).


def make_rng(seed: int | None = None) -> random.Random:
    """Return a new :class:`random.Random` seeded deterministically.

    Parameters
    ----------
    seed:
        Seed to use.  ``None`` selects :data:`DEFAULT_SEED` (*not* an
        OS-entropy seed) so that "no seed given" still means reproducible.
    """
    return random.Random(DEFAULT_SEED if seed is None else seed)


def spawn_rng(parent: random.Random, label: str | int = 0) -> random.Random:
    """Derive an independent child generator from ``parent``.

    The child is seeded from the parent's stream combined with ``label`` so
    that two children with different labels are decorrelated, and the parent
    stream advances by exactly one draw regardless of label.
    """
    return random.Random(spawn_seed(parent, label))


def spawn_seed(parent: random.Random, label: str | int = 0) -> str:
    """The seed :func:`spawn_rng` gives its child, drawn now.

    For a caller that builds the child only if it is ever read: it takes
    the parent's one draw at the same point of the stream, and
    ``random.Random(spawn_seed(parent, label))`` is bit-identical to
    ``spawn_rng(parent, label)``.
    """
    return f"{parent.getrandbits(64)}:{label!r}"

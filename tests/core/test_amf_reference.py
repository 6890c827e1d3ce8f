"""The shipping AMF and distributed sum against their dict-keyed references.

The planner digest (``test_planner_digest.py``) only sees the inputs the
planner produces: distinct ``(priority, group, key)`` triples in a mapping,
``diagnostics=False``.  Experiments E5 and E6 and the protocol tests call
AMF with plain numbers, ties, sequence-of-pairs input and diagnostics on, so
the equivalence is checked here over that wider input space.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.amf_reference import approximate_median_reference, distributed_sum_reference

from repro.core.amf import approximate_median
from repro.skiplist.balanced import BalancedSkipList
from repro.skiplist.distributed_sum import distributed_sum

#: Value kinds: small integers (many ties), floats with infinities, and the
#: planner's ``(priority, group, key)`` triples with tied priorities.
VALUES = st.sampled_from(["ints", "floats", "triples"])


def draw_values(kind: str, n: int, rng: random.Random) -> list:
    if kind == "ints":
        return [rng.randrange(6) for _ in range(n)]
    if kind == "floats":
        return [rng.choice([float("-inf"), -2.5, 0.0, 1.25, float("inf"), rng.uniform(-9, 9)]) for _ in range(n)]
    return [(float(rng.randrange(-3, 3)), rng.randrange(1, 4), key) for key in range(n)]


@settings(max_examples=150, deadline=None)
@given(
    kind=VALUES,
    n=st.integers(1, 300),
    a=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    as_pairs=st.booleans(),
    diagnostics=st.booleans(),
)
def test_approximate_median_equals_the_reference(kind, n, a, seed, as_pairs, diagnostics):
    rng = random.Random(seed)
    items = rng.sample(range(10 * n), n)
    values = draw_values(kind, n, rng)
    data = list(zip(items, values)) if as_pairs else dict(zip(items, values))
    shipped_rng, reference_rng = random.Random(seed), random.Random(seed)

    shipped = approximate_median(data, a=a, rng=shipped_rng, diagnostics=diagnostics)
    reference = approximate_median_reference(data, a=a, rng=reference_rng, diagnostics=diagnostics)

    assert (shipped.median, shipped.rounds, shipped.n, shipped.exact) == (
        reference.median, reference.rounds, reference.n, reference.exact,
    )
    if diagnostics or not reference.exact:
        assert (shipped.rank_low, shipped.rank_high) == (reference.rank_low, reference.rank_high)
    else:
        # The reference's exact path ignores the flag; the shipping one honours it.
        assert (shipped.rank_low, shipped.rank_high) == (0, 0)
    if reference.skiplist is None:
        assert shipped.skiplist is None
    else:
        assert shipped.skiplist.levels == reference.skiplist.levels
        assert shipped.skiplist.broadcast_rounds() == reference.skiplist.broadcast_rounds()
    assert shipped_rng.getstate() == reference_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 300),
    a=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    include_broadcast=st.booleans(),
)
def test_distributed_sum_equals_the_reference(n, a, seed, include_broadcast):
    rng = random.Random(seed)
    items = rng.sample(range(10 * n), n)
    skiplist = BalancedSkipList(items, a=a, rng=random.Random(seed))
    values = {item: rng.choice([1, 1.0, 0.1, -3, rng.uniform(-5, 5)]) for item in items}

    shipped = distributed_sum(skiplist, values, include_broadcast=include_broadcast)
    reference = distributed_sum_reference(skiplist, values, include_broadcast=include_broadcast)

    assert shipped.total == reference.total
    assert shipped.rounds == reference.rounds
    assert shipped.partials == reference.partials
    assert list(shipped.partials) == list(reference.partials)


def test_missing_values_are_rejected_alike():
    skiplist = BalancedSkipList(list(range(20)), a=4, rng=random.Random(1))
    values = {item: 1 for item in range(19)}
    with pytest.raises(ValueError, match="missing values") as shipped:
        distributed_sum(skiplist, values)
    with pytest.raises(ValueError, match="missing values") as reference:
        distributed_sum_reference(skiplist, values)
    assert str(shipped.value) == str(reference.value)

"""Tests for Approximate Median Finding (Section V, Lemma 1)."""

import pytest

from repro.core.amf import approximate_median, exact_median, rank_interval
from repro.simulation.rng import make_rng


class TestExactMedianAndRanks:
    def test_exact_median_odd_even(self):
        assert exact_median([3, 1, 2]) == 2
        assert exact_median([4, 1, 2, 3]) == 2  # lower median

    def test_exact_median_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_median([])

    def test_rank_interval_unique(self):
        assert rank_interval([10, 20, 30], 20) == (2, 2)

    def test_rank_interval_with_ties(self):
        assert rank_interval([1, 2, 2, 2, 3], 2) == (2, 4)


class TestSmallLists:
    def test_tiny_list_uses_exact_median(self):
        result = approximate_median({1: 5.0, 2: 1.0, 3: 3.0}, a=4)
        assert result.exact
        assert result.median == 3.0
        assert result.skiplist is None
        assert result.rounds == 3

    def test_single_value(self):
        result = approximate_median({7: 42.0}, a=4)
        assert result.median == 42.0
        assert result.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            approximate_median({}, a=4)

    def test_bad_a_rejected(self):
        with pytest.raises(ValueError):
            approximate_median({1: 1.0, 2: 2.0}, a=1)


class TestDiagnosticsFlag:
    @pytest.mark.parametrize("n", [3, 40], ids=["exact-path", "skip-list-path"])
    def test_rank_fields_follow_the_flag_on_both_paths(self, n):
        values = {key: float((key * 7) % 5) for key in range(1, n + 1)}
        on = approximate_median(values, a=4, rng=make_rng(1), diagnostics=True)
        off = approximate_median(values, a=4, rng=make_rng(1), diagnostics=False)
        assert on.exact == off.exact == (n <= 4)
        assert (on.rank_low, on.rank_high) == rank_interval(list(values.values()), on.median)
        assert on.rank_low >= 1
        assert (off.rank_low, off.rank_high) == (0, 0)
        assert (off.median, off.rounds, off.n) == (on.median, on.rounds, on.n)


class TestLemma1:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("a", [3, 4, 8])
    def test_rank_within_lemma_bound(self, n, a):
        rng = make_rng(n * 37 + a)
        values = {i: float(rng.randrange(10_000)) for i in range(n)}
        result = approximate_median(values, a=a, rng=make_rng(n + a))
        assert result.n == n
        assert result.satisfies_lemma1(a), (
            f"rank interval [{result.rank_low}, {result.rank_high}] outside "
            f"{n / 2} +- {n / (2 * a)}"
        )

    def test_rank_error_property(self):
        rng = make_rng(5)
        values = {i: float(rng.random()) for i in range(200)}
        result = approximate_median(values, a=4, rng=make_rng(6))
        assert result.rank_error <= result.n / 2

    def test_works_with_many_duplicate_values(self):
        values = {i: float(i % 3) for i in range(120)}
        result = approximate_median(values, a=4, rng=make_rng(7))
        assert result.median in (0.0, 1.0, 2.0)
        assert result.satisfies_lemma1(4)

    def test_works_with_tuple_values(self):
        # DSG feeds (priority, key) pairs to break ties; AMF must support them.
        values = {i: (float(i % 5), i) for i in range(100)}
        result = approximate_median(values, a=4, rng=make_rng(8))
        low, high = rank_interval(list(values.values()), result.median)
        assert low <= 100 / 2 + 100 / 8
        assert high >= 100 / 2 - 100 / 8

    def test_works_with_infinities(self):
        values = {i: float(i) for i in range(60)}
        values[60] = float("inf")
        values[61] = float("inf")
        result = approximate_median(values, a=4, rng=make_rng(9))
        assert result.median != float("inf")


class TestRounds:
    def test_rounds_logarithmic_scaling(self):
        rounds = {}
        for n in (64, 256, 1024):
            values = {i: float(i * 7 % n) for i in range(n)}
            result = approximate_median(values, a=4, rng=make_rng(n))
            rounds[n] = result.rounds
        # Doubling n twice should multiply the rounds by far less than 16x
        # (the expected growth is logarithmic, i.e. +constant per doubling).
        assert rounds[1024] <= rounds[64] * 6

    def test_reported_skiplist_is_reusable(self):
        values = {i: float(i) for i in range(100)}
        result = approximate_median(values, a=4, rng=make_rng(3))
        assert result.skiplist is not None
        assert result.skiplist.size == 100
        assert result.skiplist.levels[0] == list(range(100))

    def test_deterministic_given_seed(self):
        values = {i: float((i * 31) % 97) for i in range(97)}
        first = approximate_median(values, a=4, rng=make_rng(42))
        second = approximate_median(values, a=4, rng=make_rng(42))
        assert first.median == second.median
        assert first.rounds == second.rounds

"""Tests for the deterministic RNG helpers."""

import pytest

from repro.simulation.rng import DEFAULT_SEED, make_rng, spawn_rng

pytestmark = pytest.mark.engine


class TestMakeRng:
    def test_default_seed_is_deterministic(self):
        assert make_rng().random() == make_rng().random()
        assert make_rng(None).random() == make_rng(DEFAULT_SEED).random()

    def test_distinct_seeds_give_distinct_streams(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_same_seed_same_sequence(self):
        first = [make_rng(7).random() for _ in range(1)]
        second = [make_rng(7).random() for _ in range(1)]
        assert first == second


class TestSpawnRng:
    def test_children_with_different_labels_are_decorrelated(self):
        parent = make_rng(3)
        child_a = spawn_rng(parent, label="a")
        parent = make_rng(3)
        child_b = spawn_rng(parent, label="b")
        assert child_a.random() != child_b.random()

    def test_child_is_reproducible(self):
        first = spawn_rng(make_rng(5), label="x").random()
        second = spawn_rng(make_rng(5), label="x").random()
        assert first == second

    def test_parent_stream_advances_once_per_spawn(self):
        parent_a = make_rng(9)
        spawn_rng(parent_a, label="one")
        after_one = parent_a.random()
        parent_b = make_rng(9)
        spawn_rng(parent_b, label="completely-different-label")
        after_other = parent_b.random()
        assert after_one == after_other

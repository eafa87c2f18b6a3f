"""Tests for repro.sketches.linear_counting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.families import HashFunction
from repro.sketches.linear_counting import linear_counting_estimate


class TestEstimateFunction:
    def test_all_empty_is_zero(self):
        assert linear_counting_estimate(100, 100) == 0.0

    def test_saturated_is_inf(self):
        assert math.isinf(linear_counting_estimate(100, 0))

    def test_known_value(self):
        # half-empty: n = -m ln(1/2) = m ln 2
        assert linear_counting_estimate(1000, 500) == pytest.approx(1000 * math.log(2))

    @pytest.mark.parametrize("m,e", [(0, 0), (-5, 0), (10, 11), (10, -1)])
    def test_validation(self, m, e):
        with pytest.raises(ValueError):
            linear_counting_estimate(m, e)

    @given(st.integers(1, 10_000), st.data())
    def test_monotone_in_occupancy(self, m, data):
        """Fewer empty cells => larger estimate."""
        e1 = data.draw(st.integers(1, m))
        e2 = data.draw(st.integers(1, e1))
        assert linear_counting_estimate(m, e2) >= linear_counting_estimate(m, e1)


def hashed_occupancy(keys, n_cells: int, seed: int) -> int:
    """Empty cells left after hashing ``keys`` into an ``n_cells`` bitmap."""
    occupied = np.zeros(n_cells, dtype=bool)
    occupied[HashFunction(seed).buckets_batch(list(keys), n_cells)] = True
    return n_cells - int(occupied.sum())


class TestEstimateAccuracy:
    """The estimator over bitmaps filled by the repository's own hash."""

    @pytest.mark.parametrize(
        "n_cells,n_items,seed,rel",
        [
            (10_000, 5_000, 3, 0.05),  # moderate load
            (2_000, 6_000, 5, 0.15),  # past m cells: usable while load < ln m
        ],
        ids=["moderate-load", "beyond-capacity"],
    )
    def test_recovers_distinct_count(self, n_cells, n_items, seed, rel):
        empty = hashed_occupancy(range(n_items), n_cells, seed)
        estimate = linear_counting_estimate(n_cells, empty)
        assert estimate == pytest.approx(n_items, rel=rel)

    def test_duplicates_do_not_move_estimate(self):
        once = hashed_occupancy(range(500), 1_000, seed=2)
        repeated = hashed_occupancy(list(range(500)) * 50, 1_000, seed=2)
        assert repeated == once
        lone = hashed_occupancy([7] * 50, 1_000, seed=2)
        assert linear_counting_estimate(1_000, lone) == pytest.approx(1.0, rel=0.01)

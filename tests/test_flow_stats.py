"""Tests for repro.flow.stats."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flow.stats import (
    TraceStats,
    cdf_at,
    heavy_hitters,
    size_cdf,
    top_fraction_share,
)


class TestTraceStats:
    def test_from_sizes(self):
        stats = TraceStats.from_sizes({1: 10, 2: 1, 3: 1})
        assert stats.flows == 3
        assert stats.packets == 12
        assert stats.max_flow_size == 10
        assert stats.mean_flow_size == 4.0

    def test_empty(self):
        stats = TraceStats.from_sizes({})
        assert stats.flows == 0
        assert stats.packets == 0
        assert stats.mean_flow_size == 0.0


class TestSizeCdf:
    def test_simple(self):
        cdf = size_cdf({1: 1, 2: 1, 3: 2, 4: 5})
        assert cdf == [(1, 0.5), (2, 0.75), (5, 1.0)]

    def test_empty(self):
        assert size_cdf({}) == []

    def test_monotone_and_terminal(self):
        cdf = size_cdf({i: (i % 7) + 1 for i in range(100)})
        values = [v for _, v in cdf]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    @given(st.dictionaries(st.integers(0, 1000), st.integers(1, 50), min_size=1))
    def test_cdf_properties(self, sizes):
        cdf = size_cdf(sizes)
        values = [v for _, v in cdf]
        assert all(0 < v <= 1 for v in values)
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)


class TestCdfAt:
    def test_step_function(self):
        cdf = [(1, 0.5), (5, 0.9), (10, 1.0)]
        assert cdf_at(cdf, 0) == 0.0
        assert cdf_at(cdf, 1) == 0.5
        assert cdf_at(cdf, 4) == 0.5
        assert cdf_at(cdf, 5) == 0.9
        assert cdf_at(cdf, 100) == 1.0


class TestTopFractionShare:
    def test_all_flows(self):
        assert top_fraction_share({1: 5, 2: 5}, 1.0) == 1.0

    def test_zero_fraction(self):
        assert top_fraction_share({1: 5, 2: 5}, 0.0) == 0.0

    def test_skewed(self):
        sizes = {0: 96} | {i: 1 for i in range(1, 5)}
        # Top 20% of 5 flows = 1 flow = the 96-packet one.
        assert top_fraction_share(sizes, 0.2) == 0.96

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            top_fraction_share({1: 1}, 1.5)

    def test_empty(self):
        assert top_fraction_share({}, 0.5) == 0.0


class TestHeavyHitters:
    def test_strictly_greater_than_threshold(self):
        sizes = {1: 10, 2: 5, 3: 6}
        assert heavy_hitters(sizes, 5) == {1: 10, 3: 6}

    def test_zero_threshold_keeps_all(self):
        sizes = {1: 1, 2: 2}
        assert heavy_hitters(sizes, 0) == sizes

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            heavy_hitters({1: 1}, -1)

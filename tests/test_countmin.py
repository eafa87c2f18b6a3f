"""Tests for repro.sketches.countmin."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.countmin import CountMinSketch


class TestBasics:
    def test_query_unseen_is_zero(self):
        cm = CountMinSketch(width=64, depth=3)
        assert cm.query(12345) == 0

    def test_single_key_exact_when_sparse(self):
        cm = CountMinSketch(width=1024, depth=3, counter_bits=32)
        for _ in range(7):
            cm.add(42)
        assert cm.query(42) == 7

    def test_add_amount(self):
        cm = CountMinSketch(width=256, depth=2, counter_bits=32)
        cm.add(5, amount=100)
        assert cm.query(5) == 100

    def test_negative_amount_rejected(self):
        cm = CountMinSketch(width=16, depth=1)
        with pytest.raises(ValueError):
            cm.add(1, amount=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 0, "depth": 1},
            {"width": 8, "depth": 0},
            {"width": 8, "depth": 1, "counter_bits": 0},
            {"width": 8, "depth": 1, "counter_bits": 63, "kernel": "numpy"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CountMinSketch(**kwargs)


class TestNeverUnderestimates:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=300))
    def test_overestimate_property(self, stream):
        """Count-min never underestimates (before counter saturation)."""
        cm = CountMinSketch(width=32, depth=3, counter_bits=32)
        truth = {}
        for key in stream:
            cm.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert cm.query(key) >= count

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=300))
    def test_conservative_update_never_underestimates(self, stream):
        cm = CountMinSketch(width=32, depth=3, counter_bits=32, conservative=True)
        truth = {}
        for key in stream:
            cm.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert cm.query(key) >= count

    def test_conservative_no_worse_than_plain(self):
        stream = [i % 17 for i in range(2000)]
        plain = CountMinSketch(width=16, depth=3, counter_bits=32, seed=1)
        cons = CountMinSketch(width=16, depth=3, counter_bits=32, seed=1, conservative=True)
        for k in stream:
            plain.add(k)
            cons.add(k)
        for k in set(stream):
            assert cons.query(k) <= plain.query(k)


class TestSaturation:
    def test_counters_saturate_not_wrap(self):
        cm = CountMinSketch(width=8, depth=1, counter_bits=8)
        for _ in range(300):
            cm.add(1)
        assert cm.query(1) == 255

    def test_saturating_add_amount(self):
        cm = CountMinSketch(width=8, depth=1, counter_bits=8)
        cm.add(1, amount=1000)
        assert cm.query(1) == 255


class TestZeroFraction:
    def test_fresh_sketch_all_zero(self):
        assert CountMinSketch(width=100, depth=1).zero_fraction() == 1.0

    def test_decreases_with_inserts(self):
        cm = CountMinSketch(width=100, depth=1)
        before = cm.zero_fraction()
        for i in range(50):
            cm.add(i)
        assert cm.zero_fraction() < before


class TestAccounting:
    def test_memory_bits(self):
        cm = CountMinSketch(width=100, depth=3, counter_bits=8)
        assert cm.memory_bits == 100 * 3 * 8

    def test_meter_counts_ops(self):
        cm = CountMinSketch(width=64, depth=3)
        cm.add(1)
        assert cm.meter.hashes == 3
        assert cm.meter.reads == 3
        assert cm.meter.writes == 3

    def test_reset(self):
        cm = CountMinSketch(width=64, depth=2)
        cm.add(9, amount=5)
        cm.reset()
        assert cm.query(9) == 0
        assert cm.zero_fraction() == 1.0

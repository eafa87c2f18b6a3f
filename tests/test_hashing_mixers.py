"""Tests for repro.hashing.mixers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.mixers import (
    MASK64,
    derive_seeds,
    key_groups,
    mix128,
    splitmix64,
)


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_range_is_64_bits(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) <= MASK64

    def test_distinct_inputs_distinct_outputs_smoke(self):
        outputs = {splitmix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000  # bijection on the sampled domain

    @given(st.integers(min_value=0, max_value=MASK64))
    def test_output_in_range_property(self, x):
        assert 0 <= splitmix64(x) <= MASK64

    def test_avalanche_single_bit_flip(self):
        """Flipping one input bit should flip roughly half the output bits."""
        base = splitmix64(0xDEADBEEF)
        total = 0
        for bit in range(64):
            flipped = splitmix64(0xDEADBEEF ^ (1 << bit))
            total += bin(base ^ flipped).count("1")
        average = total / 64
        assert 24 < average < 40


class TestMix128:
    def test_uses_high_bits(self):
        """Keys differing only above bit 64 must hash differently."""
        lo = 0x1234
        assert mix128(lo, seed=7) != mix128(lo | (1 << 100), seed=7)

    def test_seed_changes_output(self):
        assert mix128(42, seed=1) != mix128(42, seed=2)

    def test_deterministic(self):
        key = (1 << 103) | 0xABCDEF
        assert mix128(key, seed=99) == mix128(key, seed=99)

    @given(
        st.integers(min_value=0, max_value=(1 << 128) - 1),
        st.integers(min_value=0, max_value=MASK64),
    )
    def test_range_property(self, key, seed):
        assert 0 <= mix128(key, seed) <= MASK64

    def test_bucket_uniformity_chi_square_like(self):
        """Bucketed outputs should be roughly uniform across 16 buckets."""
        n, buckets = 32_000, 16
        counts = [0] * buckets
        for i in range(n):
            counts[mix128(i, seed=5) % buckets] += 1
        expected = n / buckets
        for c in counts:
            assert abs(c - expected) < 0.1 * expected


class TestDeriveSeeds:
    def test_count(self):
        assert len(derive_seeds(0, 5)) == 5

    def test_empty(self):
        assert derive_seeds(123, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_seeds(0, -1)

    def test_deterministic_and_distinct(self):
        a = derive_seeds(77, 16)
        b = derive_seeds(77, 16)
        assert a == b
        assert len(set(a)) == 16

    def test_different_masters_differ(self):
        assert derive_seeds(1, 4) != derive_seeds(2, 4)

    def test_prefix_stability(self):
        """Seeds are a stream: asking for more extends the same prefix."""
        assert derive_seeds(9, 8)[:4] == derive_seeds(9, 4)


class TestBatchMixers:
    """The vectorized mixers must be bit-identical to the scalar ones."""

    EDGE_CASES = [0, 1, 2**31, 2**63, 2**64 - 1]

    def test_splitmix64_batch_matches_scalar(self):
        import numpy as np

        from repro.hashing.mixers import splitmix64_batch

        xs = self.EDGE_CASES + [splitmix64(i) for i in range(500)]
        out = splitmix64_batch(np.array(xs, dtype=np.uint64))
        assert out.tolist() == [splitmix64(x) for x in xs]

    @pytest.mark.parametrize("seed", [0, 42, MASK64])
    def test_mix128_batch_matches_scalar(self, seed):
        from repro.hashing.mixers import mix128_batch, split_keys

        # Mix of 64-bit-only keys (hi == 0, the conditional-fold branch)
        # and full-width keys.
        keys = (
            self.EDGE_CASES
            + [1 << 64, (1 << 104) - 1, (1 << 128) - 1]
            + [splitmix64(i) | (splitmix64(i + 2**32) << 64) for i in range(300)]
        )
        lo, hi = split_keys(keys)
        out = mix128_batch(lo, hi, seed)
        assert out.tolist() == [mix128(k, seed) for k in keys]

    def test_split_keys_roundtrip(self):
        from repro.hashing.mixers import split_keys

        keys = [0, 5, (1 << 104) - 1, 1 << 64]
        lo, hi = split_keys(keys)
        assert [(int(h) << 64) | int(l) for l, h in zip(lo, hi)] == keys

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_mix128_batch_property(self, key):
        from repro.hashing.mixers import mix128_batch, split_keys

        lo, hi = split_keys([key])
        assert int(mix128_batch(lo, hi, 99)[0]) == mix128(key, 99)


def _halves(keys: list[int]) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([k & MASK64 for k in keys], dtype=np.uint64)
    hi = np.array([k >> 64 for k in keys], dtype=np.uint64)
    return lo, hi


@st.composite
def _grouping_input(draw):
    """``(keys, strided)``: packed keys whose widest ``hi`` has a drawn
    bit width, in one of the shapes the column merge sees, and whether
    to pass them as a strided view.

    A key is ``top << width | low``: its top 64 bits and the ``width``
    bits below them.  Tops come from a small pool so that they repeat,
    and one top with its high bit set pins the width.
    """
    width = draw(st.integers(0, 64))
    pinned = (1 << 63) | draw(st.integers(0, MASK64 >> 1))
    tops = [pinned] + draw(st.lists(st.integers(0, MASK64), max_size=6))
    lows = st.integers(0, (1 << width) - 1)
    key = st.builds(lambda t, r: (t << width) | r, st.sampled_from(tops), lows)
    shape = draw(
        st.sampled_from(["random", "runs", "one_hi", "duplicates", "budget"])
    )
    if shape == "random":
        keys = draw(st.lists(key, max_size=40))
    elif shape == "runs":
        # 1-9 sorted, duplicate-free runs drawn from one pool, as a
        # merge concatenates summaries: keys recur across runs.
        pool = draw(st.lists(key, min_size=1, max_size=30))
        runs = draw(
            st.lists(st.lists(st.sampled_from(pool), unique=True),
                     min_size=1, max_size=9)
        )
        keys = [k for run in runs for k in sorted(run)]
    elif shape == "one_hi":
        hi = pinned >> (64 - width) if width else 0
        los = st.one_of(st.integers(0, MASK64), st.integers(0, 3))
        keys = [(hi << 64) | lo for lo in draw(st.lists(los, max_size=40))]
    elif shape == "duplicates":
        pool = draw(st.lists(key, min_size=1, max_size=3))
        keys = draw(st.lists(st.sampled_from(pool), max_size=80))
    else:
        # Distinct tops but one repeat, on both sides of the pack
        # budget of 2**(64 - width) rows (a reachable size only for
        # wide hi): the widest input whose dense rank still fits.
        width = draw(st.integers(58, 64))
        budget = 1 << (64 - width)
        n = budget + draw(st.integers(0, 1))
        distinct = draw(
            st.lists(st.integers(0, MASK64 >> 1), min_size=max(n - 1, 1),
                     max_size=max(n - 1, 1), unique=True)
        )
        tops = [t | (1 << 63) for t in distinct]
        if n > 1:
            tops.append(draw(st.sampled_from(tops)))
        rows = [(t << width) | draw(st.integers(0, (1 << width) - 1)) for t in tops]
        keys = draw(st.permutations(rows))
    return keys, draw(st.booleans())


def _reference_groups(keys: list[int]) -> tuple[np.ndarray, list[int]]:
    lo, hi = _halves(keys)
    order = np.lexsort((lo, hi))
    ordered = [keys[i] for i in order.tolist()]
    starts = [i for i in range(len(ordered)) if i == 0 or ordered[i] != ordered[i - 1]]
    return order, starts


class TestKeyGroups:
    """``key_groups`` is ``np.lexsort((lo, hi))``'s order, whatever the
    sort underneath, and its group starts."""

    @settings(max_examples=400, deadline=None)
    @given(_grouping_input())
    def test_matches_lexsort(self, drawn):
        keys, strided = drawn
        lo, hi = _halves(keys)
        if strided:
            # Every other row of a doubled column: a non-contiguous view.
            lo, hi = np.repeat(lo, 2)[::2], np.repeat(hi, 2)[::2]
            assert not lo.flags.c_contiguous or len(lo) < 2
        order, starts = key_groups(lo, hi)
        expected_order, expected_starts = _reference_groups(keys)
        assert order.tolist() == expected_order.tolist()
        assert starts.tolist() == expected_starts

"""Tests for repro.traces.sampling."""

from __future__ import annotations

import pytest

from repro.traces.sampling import sample_deterministic
from repro.traces.trace import trace_from_keys


class TestDeterministicSampling:
    def test_period_one_keeps_all(self, small_trace):
        sampled = sample_deterministic(small_trace, 1)
        assert len(sampled) == len(small_trace)

    def test_exact_period(self):
        t = trace_from_keys([1, 2, 3, 4, 5, 6, 7, 8])
        sampled = sample_deterministic(t, 4)
        assert sampled.key_list() == [1, 5]

    def test_offset(self):
        t = trace_from_keys([1, 2, 3, 4, 5, 6, 7, 8])
        sampled = sample_deterministic(t, 4, offset=2)
        assert sampled.key_list() == [3, 7]

    def test_sampled_counts_never_exceed_original(self, small_trace):
        sampled = sample_deterministic(small_trace, 10)
        original = small_trace.true_sizes()
        for key, count in sampled.true_sizes().items():
            assert count <= original[key]

    def test_empty_flows_dropped(self):
        t = trace_from_keys([1, 2, 1, 2, 1, 2])
        sampled = sample_deterministic(t, 6)  # keeps only the first packet
        assert sampled.num_flows == 1

    @pytest.mark.parametrize("bad_n,bad_off", [(0, 0), (-1, 0), (4, 4), (4, -1)])
    def test_validation(self, bad_n, bad_off, small_trace):
        with pytest.raises(ValueError):
            sample_deterministic(small_trace, bad_n, offset=bad_off)

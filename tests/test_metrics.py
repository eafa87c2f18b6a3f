"""Tests for repro.analysis.metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.metrics import (
    average_relative_error,
    flow_set_coverage,
    precision_recall_f1,
    relative_error,
)


class TestFlowSetCoverage:
    def test_full_coverage(self):
        assert flow_set_coverage([1, 2, 3], [1, 2, 3]) == 1.0

    def test_partial(self):
        assert flow_set_coverage([1, 2], [1, 2, 3, 4]) == 0.5

    def test_spurious_reports_do_not_help(self):
        assert flow_set_coverage([1, 99, 98, 97], [1, 2]) == 0.5

    def test_duplicates_count_once(self):
        assert flow_set_coverage([1, 1, 1], [1, 2]) == 0.5

    def test_empty_truth(self):
        assert flow_set_coverage([1], []) == 1.0

    @given(st.sets(st.integers(0, 100)), st.sets(st.integers(0, 100)))
    def test_bounded_property(self, reported, truth):
        assert 0.0 <= flow_set_coverage(reported, truth) <= 1.0


class TestRelativeError:
    def test_exact(self):
        assert relative_error(10, 10) == 0.0

    def test_overestimate(self):
        assert relative_error(15, 10) == pytest.approx(0.5)

    def test_underestimate(self):
        assert relative_error(5, 10) == pytest.approx(0.5)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_error(5, 0)

    def test_infinite_estimate(self):
        assert math.isinf(relative_error(math.inf, 10))


class TestAverageRelativeError:
    def test_perfect_estimates(self):
        truth = {1: 10, 2: 20}
        assert average_relative_error(lambda k: truth[k], truth) == 0.0

    def test_missing_flow_contributes_one(self):
        """Paper: 'if no result can be reported, we use 0 as the default
        value' — a missing flow has relative error exactly 1."""
        truth = {1: 10, 2: 20}
        assert average_relative_error(lambda k: 0, truth) == 1.0

    def test_mixed(self):
        truth = {1: 10, 2: 10}
        estimates = {1: 10, 2: 0}
        assert average_relative_error(lambda k: estimates[k], truth) == 0.5

    def test_empty_truth(self):
        assert average_relative_error(lambda k: 0, {}) == 0.0

    @given(st.dictionaries(st.integers(0, 50), st.integers(1, 100), min_size=1))
    def test_nonnegative_property(self, truth):
        are = average_relative_error(lambda k: truth[k] + 1, truth)
        assert are >= 0.0

    def test_zero_true_size_rejected(self):
        """A zero true size is undefined — ValueError, not a crash."""
        with pytest.raises(ValueError):
            average_relative_error(lambda k: 1, {1: 10, 2: 0})

    def test_zero_true_size_rejected_array_path(self):
        with pytest.raises(ValueError):
            average_relative_error(np.array([1.0, 2.0]), np.array([10, 0]))

    def test_inf_estimate_propagates(self):
        """An inf estimate yields an inf mean, like relative_error."""
        truth = {1: 10, 2: 20}
        assert math.isinf(average_relative_error(lambda k: math.inf, truth))
        assert math.isinf(
            average_relative_error(np.array([math.inf, 20.0]), np.array([10, 20]))
        )


class TestAverageRelativeErrorArrayNative:
    """The batch-query signatures: estimate arrays and truth vectors."""

    def test_estimates_array_against_truth_dict(self):
        truth = {1: 10, 2: 10}
        assert average_relative_error([10, 0], truth) == 0.5
        assert average_relative_error(np.array([10, 0]), truth) == 0.5

    def test_estimates_array_against_truth_vector(self):
        est = np.array([10, 0, 30])
        true = np.array([10, 10, 20])
        assert average_relative_error(est, true) == pytest.approx((0 + 1 + 0.5) / 3)

    def test_collector_against_truth_dict_uses_query_batch(self):
        class _FakeCollector:
            def query_batch(self, keys):
                return np.array([truth[k] for k in keys], dtype=np.int64)

        truth = {5: 4, 9: 8}
        assert average_relative_error(_FakeCollector(), truth) == 0.0

    def test_matches_scalar_path(self):
        truth = {k: k + 1 for k in range(1, 200)}
        estimates = {k: (k * 7) % 30 for k in truth}
        scalar = average_relative_error(lambda k: estimates[k], truth)
        vector = average_relative_error(
            np.array([estimates[k] for k in truth]), truth
        )
        assert vector == pytest.approx(scalar, rel=1e-12)

    def test_empty_arrays(self):
        assert average_relative_error(np.array([]), np.array([])) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_relative_error(np.array([1.0]), np.array([1, 2]))

    def test_truth_vector_needs_estimates_array(self):
        """Without flow keys a collector/callable cannot be queried."""
        with pytest.raises(TypeError):
            average_relative_error(lambda k: 0, np.array([1, 2]))


class TestSetMetricsInputTypes:
    """Dicts, sets, ndarrays and duplicate-bearing iterables."""

    def test_fsc_dict_views(self):
        reported = {1: 5, 2: 6, 9: 1}
        truth = {1: 5, 2: 6, 3: 7, 4: 8}
        assert flow_set_coverage(reported, truth) == 0.5

    def test_fsc_ndarray_inputs(self):
        assert flow_set_coverage(np.array([1, 2, 9]), np.array([1, 2, 3, 4])) == 0.5

    def test_fsc_duplicate_reported_ids_count_once(self):
        assert flow_set_coverage([1, 1, 1, 2, 2], [1, 2, 3, 4]) == 0.5

    def test_prf_empty_report_and_empty_truth(self):
        assert precision_recall_f1([], [1, 2]) == (1.0, 0.0, 0.0)
        p, r, f1 = precision_recall_f1([1], [])
        assert r == 1.0
        assert precision_recall_f1([], []) == (1.0, 1.0, 1.0)

    def test_prf_duplicates_and_ndarrays(self):
        p, r, f1 = precision_recall_f1(np.array([1, 1, 2, 7]), {1: 9, 2: 9})
        assert p == pytest.approx(2 / 3)
        assert r == 1.0

    def test_prf_dict_inputs(self):
        p, r, f1 = precision_recall_f1({1: 5, 3: 2}, {1: 5, 2: 9})
        assert p == 0.5
        assert r == 0.5


class TestPrecisionRecallF1:
    def test_perfect(self):
        assert precision_recall_f1([1, 2], [1, 2]) == (1.0, 1.0, 1.0)

    def test_half_precision(self):
        p, r, f1 = precision_recall_f1([1, 2, 3, 4], [1, 2])
        assert p == 0.5
        assert r == 1.0
        assert f1 == pytest.approx(2 / 3)

    def test_half_recall(self):
        p, r, f1 = precision_recall_f1([1], [1, 2])
        assert p == 1.0
        assert r == 0.5

    def test_disjoint(self):
        p, r, f1 = precision_recall_f1([3, 4], [1, 2])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_empty_report(self):
        p, r, f1 = precision_recall_f1([], [1])
        assert p == 1.0
        assert r == 0.0
        assert f1 == 0.0

    def test_empty_truth(self):
        p, r, f1 = precision_recall_f1([1], [])
        assert r == 1.0

    def test_both_empty(self):
        assert precision_recall_f1([], []) == (1.0, 1.0, 1.0)

    @given(st.sets(st.integers(0, 40)), st.sets(st.integers(0, 40)))
    def test_f1_bounded_property(self, reported, truth):
        p, r, f1 = precision_recall_f1(reported, truth)
        eps = 1e-12
        assert 0.0 <= f1 <= 1.0 + eps
        assert (min(p, r) - eps <= f1 <= max(p, r) + eps) or f1 == 0.0

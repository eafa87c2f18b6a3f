"""Tests for repro.analysis.significance."""

from __future__ import annotations

import pytest

from repro.analysis.significance import summarize


class TestSummarize:
    def test_single_value(self):
        stats = summarize([3.0])
        assert stats.mean == 3.0
        assert stats.std == 0.0
        assert stats.ci_low == stats.ci_high == 3.0

    def test_known_values(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.std == pytest.approx(1.0)
        assert stats.ci_low < 2.0 < stats.ci_high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_n(self):
        assert summarize([1, 2, 3, 4]).n == 4

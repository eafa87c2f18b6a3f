"""Statistical validation with scipy: hashes, samplers, and the model.

Goes beyond the smoke-level uniformity checks: chi-square tests on hash
bucket distributions, Kolmogorov-Smirnov tests on the Pareto sampler,
and multi-seed concentration checks on the occupancy model.  Thresholds
are deliberately loose (p > 1e-4) so seeds that are merely unlucky do
not flake the suite — a systematic bias still fails decisively.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.analysis.model import pipelined_utilization, simulate_pipelined_utilization
from repro.hashing.families import HashFamily, HashFunction
from repro.traces.synthetic import sample_truncated_pareto


class TestHashUniformity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chi_square_buckets(self, seed):
        h = HashFunction(seed=seed * 7919 + 1)
        buckets = 64
        counts = np.zeros(buckets)
        n = 64_000
        for key in range(n):
            counts[h.bucket(key, buckets)] += 1
        _, p = stats.chisquare(counts)
        assert p > 1e-4, f"seed {seed}: p={p}"

    def test_pairwise_agreement_binomial(self):
        """Agreement rate of two family members ~ Binomial(n, 1/m)."""
        fam = HashFamily(2, master_seed=11)
        m = 128
        n = 50_000
        agree = sum(
            1 for k in range(n) if fam[0].bucket(k, m) == fam[1].bucket(k, m)
        )
        # Normal approximation: mean n/m, std sqrt(n/m).
        mean = n / m
        std = (n / m) ** 0.5
        assert abs(agree - mean) < 5 * std

    def test_bit_balance_of_values(self):
        """Every output bit of the mixer should be ~50% ones."""
        h = HashFunction(seed=5)
        n = 20_000
        ones = np.zeros(64)
        for key in range(n):
            v = h(key)
            for bit in range(64):
                ones[bit] += (v >> bit) & 1
        frac = ones / n
        assert np.all(np.abs(frac - 0.5) < 0.02)


class TestParetoSampler:
    def test_chi_square_against_discretized_pareto(self, rng):
        """Bin counts must match the exact distribution of the sampler's
        round-to-integer output: P(round(X) in bin) from CDF differences
        at half-integer boundaries (a KS test against the continuous CDF
        would only detect the intended rounding atom at x = lo)."""
        alpha, lo, hi = 1.5, 10.0, 100_000.0
        n = 20_000
        samples = sample_truncated_pareto(alpha, lo, hi, n, rng).astype(float)

        r = (lo / hi) ** alpha

        def cdf(x):
            x = np.clip(x, lo, hi)
            return (1 - (lo / x) ** alpha) / (1 - r)

        edges = np.unique(
            np.round(np.geomspace(lo, hi, 25)) - 0.5
        )
        edges[0] = lo - 0.5
        edges[-1] = hi + 0.5
        observed, _ = np.histogram(samples, bins=edges)
        expected = np.diff(cdf(np.clip(edges, lo, hi))) * n
        # Rounding maps [k-0.5, k+0.5) -> k; align the expected mass to
        # the same half-integer edges, then drop tiny-expectation bins.
        keep = expected > 5
        observed, expected = observed[keep], expected[keep]
        expected *= observed.sum() / expected.sum()
        _, p = stats.chisquare(observed, expected)
        assert p > 1e-4, p

    def test_tail_exponent_via_hill_estimator(self, rng):
        """The Hill estimator on the sample tail should recover alpha."""
        alpha = 1.5
        samples = sample_truncated_pareto(alpha, 1.0, 1e9, 100_000, rng).astype(float)
        tail = np.sort(samples)[-5000:]
        hill = 1.0 / np.mean(np.log(tail / tail[0]))
        assert hill == pytest.approx(alpha, rel=0.15)


class TestModelConcentration:
    def test_simulation_concentrates_on_model(self):
        """Across seeds, simulated utilization should scatter tightly
        around Eq. (5) — the model is a law of large numbers statement."""
        n, d, alpha = 4000, 3, 0.7
        m = n
        model = pipelined_utilization(m, n, d, alpha)
        sims = [
            simulate_pipelined_utilization(m, n, d, alpha, seed=s)
            for s in range(8)
        ]
        assert abs(np.mean(sims) - model) < 0.01
        assert np.std(sims) < 0.01

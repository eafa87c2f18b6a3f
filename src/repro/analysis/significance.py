"""Multi-seed experiment statistics.

Single-seed experiment results can mislead on noisy metrics;
:func:`summarize` reduces one metric's per-seed values to mean,
standard deviation and a normal-approximation confidence interval, so
comparisons like "HashFlow's ARE is lower than ElasticSketch's" can be
made with error bars (the CLI's ``sweep`` command prints them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_Z_95 = 1.959963984540054


@dataclass(frozen=True, slots=True)
class SweepStats:
    """Summary of one metric across seeds.

    Attributes:
        values: raw per-seed values.
        mean: sample mean.
        std: sample standard deviation (ddof=1; 0 for a single seed).
        ci_low / ci_high: 95% normal-approximation confidence interval
            for the mean.
    """

    values: tuple[float, ...]
    mean: float
    std: float
    ci_low: float
    ci_high: float

    @property
    def n(self) -> int:
        """Number of seeds."""
        return len(self.values)


def summarize(values: list[float]) -> SweepStats:
    """Compute :class:`SweepStats` for a list of measurements.

    Raises:
        ValueError: for an empty list.
    """
    if not values:
        raise ValueError("cannot summarize zero measurements")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(variance)
        half = _Z_95 * std / math.sqrt(n)
    else:
        std = 0.0
        half = 0.0
    return SweepStats(
        values=tuple(values),
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
    )


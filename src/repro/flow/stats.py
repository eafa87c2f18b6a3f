"""Flow-level statistics over packet streams.

Implements the statistics the paper reports about its traces: Table I
(max / mean flow size) and Fig. 3 (cumulative flow-size distribution),
plus the skewness observation from Section II ("7.7% of the flows
contribute more than 85% of the packets" in the campus trace).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TraceStats:
    """Aggregate flow statistics of a trace (the paper's Table I row).

    Attributes:
        flows: number of distinct flows.
        packets: total number of packets.
        max_flow_size: packet count of the largest flow.
        mean_flow_size: average packets per flow.
    """

    flows: int
    packets: int
    max_flow_size: int
    mean_flow_size: float

    @classmethod
    def from_sizes(cls, sizes: dict[int, int]) -> TraceStats:
        """Compute stats from a ``{flow: packet count}`` mapping."""
        if not sizes:
            return cls(flows=0, packets=0, max_flow_size=0, mean_flow_size=0.0)
        packets = sum(sizes.values())
        return cls(
            flows=len(sizes),
            packets=packets,
            max_flow_size=max(sizes.values()),
            mean_flow_size=packets / len(sizes),
        )


def size_cdf(sizes: dict[int, int]) -> list[tuple[int, float]]:
    """Cumulative distribution of flow sizes (paper Fig. 3).

    Args:
        sizes: ``{flow: packet count}`` mapping.

    Returns:
        Sorted ``(size, fraction_of_flows_with_size <= size)`` points.
    """
    if not sizes:
        return []
    counts = Counter(sizes.values())
    total = len(sizes)
    points = []
    cumulative = 0
    for size in sorted(counts):
        cumulative += counts[size]
        points.append((size, cumulative / total))
    return points


def cdf_at(cdf: list[tuple[int, float]], size: int) -> float:
    """Evaluate a :func:`size_cdf` result at ``size`` (step function)."""
    value = 0.0
    for s, frac in cdf:
        if s > size:
            break
        value = frac
    return value


def top_fraction_share(sizes: dict[int, int], flow_fraction: float) -> float:
    """Fraction of packets carried by the largest ``flow_fraction`` of flows.

    Quantifies traffic skewness; the paper's campus trace has
    ``top_fraction_share(sizes, 0.077) > 0.85``.

    Args:
        sizes: ``{flow: packet count}`` mapping.
        flow_fraction: fraction of flows to take from the top, in [0, 1].

    Returns:
        Packet share in [0, 1] of the top flows.
    """
    if not 0.0 <= flow_fraction <= 1.0:
        raise ValueError(f"flow_fraction must be in [0, 1], got {flow_fraction}")
    if not sizes:
        return 0.0
    ordered = sorted(sizes.values(), reverse=True)
    take = max(1, round(len(ordered) * flow_fraction)) if flow_fraction > 0 else 0
    total = sum(ordered)
    return sum(ordered[:take]) / total if total else 0.0


def heavy_hitters(sizes: dict[int, int], threshold: int) -> dict[int, int]:
    """Ground-truth heavy hitters: flows with more than ``threshold`` packets.

    The paper (Section IV-A) defines heavy hitters as "flows with more
    than T packets".
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return {k: v for k, v in sizes.items() if v > threshold}

"""Packet sampling, as in Sampled NetFlow (paper Section I).

Deterministic 1-in-N sampling over traces: the paper's ISP2 trace is a
1:5000-sampled access link capture, after which more than 99% of
surviving flows have fewer than 5 packets.
"""

from __future__ import annotations

import numpy as np

from repro.traces.trace import Trace


def sample_deterministic(trace: Trace, every_n: int, offset: int = 0) -> Trace:
    """Keep every ``every_n``-th packet (Sampled NetFlow's 1:N mode).

    Args:
        trace: input trace.
        every_n: sampling period (>= 1); ``1`` keeps everything.
        offset: index of the first sampled packet within each period.

    Returns:
        A new trace over the surviving packets (flows with no surviving
        packets are dropped).
    """
    if every_n < 1:
        raise ValueError(f"every_n must be >= 1, got {every_n}")
    if not 0 <= offset < every_n:
        raise ValueError(f"offset must be in [0, {every_n}), got {offset}")
    mask = np.zeros(len(trace), dtype=bool)
    mask[offset::every_n] = True
    return _apply_mask(trace, mask, f"{trace.name}~1:{every_n}")


def _apply_mask(trace: Trace, mask: np.ndarray, name: str) -> Trace:
    """Build the sub-trace of packets where ``mask`` is True."""
    order = trace.order[mask]
    used = np.unique(order)
    remap = -np.ones(trace.num_flows, dtype=np.int64)
    remap[used] = np.arange(len(used))
    keys = [trace.flow_keys[i] for i in used.tolist()]
    ts = None if trace.timestamps is None else trace.timestamps[mask]
    return Trace(keys, remap[order], ts, name=name)


"""Offline epoch slicing of traces.

Operational NetFlow measures in epochs: fill tables for an interval,
export, reset, repeat.  The streaming pipeline runs that loop
(:class:`~repro.stream.pipeline.Pipeline` with a count or interval
rotation); this module slices a trace into the same epochs up front —
by packet count or by timestamp window — so a fresh collector fed each
slice is the offline reference for those rotations.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.traces.trace import Trace


def split_by_packets(trace: Trace, epoch_packets: int) -> Iterator[Trace]:
    """Slice a trace into consecutive epochs of ``epoch_packets`` packets.

    The final epoch may be shorter.  Flows spanning epochs appear in
    each epoch they have packets in, as they would on a real device.
    """
    if epoch_packets <= 0:
        raise ValueError(f"epoch_packets must be positive, got {epoch_packets}")
    for start in range(0, len(trace), epoch_packets):
        yield trace.slice_packets(start, min(start + epoch_packets, len(trace)))


def split_by_time(trace: Trace, window: float) -> Iterator[Trace]:
    """Slice a timestamped trace into fixed-duration windows.

    Raises:
        ValueError: if the trace has no timestamps.
    """
    if trace.timestamps is None:
        raise ValueError("trace has no timestamps; use split_by_packets")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    ts = trace.timestamps
    start = 0
    epoch_end = (float(ts[0]) // window + 1) * window if len(ts) else 0.0
    for i in range(len(ts)):
        if ts[i] >= epoch_end:
            yield trace.slice_packets(start, i)
            start = i
            while ts[i] >= epoch_end:
                epoch_end += window
    if start < len(ts):
        yield trace.slice_packets(start, len(ts))

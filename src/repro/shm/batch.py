"""Shared-memory traces: ship a packet stream to workers by name.

A parallel sweep (:func:`repro.parallel.engine.run_plan`) hands its
workers each distinct base trace this way: the parent copies the
trace's per-flow key halves and per-packet flow-order array into a
single owned segment (:func:`repro.parallel.engine.share_plan_traces`),
and workers attach by name — one shared copy instead of a per-worker
load from the disk cache.

The round trip is exact: a trace is (flow_keys, order, timestamps?,
name), flow keys are rebuilt from their 64-bit halves (bijective), and
order/timestamps are attached zero-copy.  Attached segments are cached
per process and kept mapped for the process lifetime (the arrays a
:class:`~repro.traces.trace.Trace` hands out are views into them).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.hashing.mixers import keys_from_halves
from repro.shm.segments import Segment, attach_segment, carve, create_segment, layout_bytes


class SharedTraceRef(NamedTuple):
    """Name + shape of a trace parked in a shared segment.

    A plain (picklable, hashable) tuple so it can ride inside frozen
    dataclasses like :class:`~repro.parallel.plan.WorkloadRef`.
    """

    segment: str
    n_flows: int
    n_packets: int
    has_timestamps: bool
    name: str


def _trace_specs(ref: SharedTraceRef) -> list[tuple[int, np.dtype]]:
    specs = [
        (ref.n_flows, np.dtype(np.uint64)),   # flow key low halves
        (ref.n_flows, np.dtype(np.uint64)),   # flow key high halves
        (ref.n_packets, np.dtype(np.int64)),  # per-packet flow order
    ]
    if ref.has_timestamps:
        specs.append((ref.n_packets, np.dtype(np.float64)))
    return specs


def share_trace(trace, label: str = "trace") -> tuple[SharedTraceRef, Segment]:
    """Copy a trace's arrays into a fresh owned segment.

    Returns:
        ``(ref, segment)`` — the caller keeps the segment and unlinks
        it once no worker needs to attach anymore.
    """
    flow_lo, flow_hi = trace.flow_batch().halves()
    ref = SharedTraceRef(
        segment="",
        n_flows=trace.num_flows,
        n_packets=len(trace),
        has_timestamps=trace.timestamps is not None,
        name=trace.name,
    )
    segment = create_segment(max(1, layout_bytes(_trace_specs(ref))), label=label)
    ref = ref._replace(segment=segment.name)
    views = carve(segment, _trace_specs(ref))
    views[0][:] = flow_lo
    views[1][:] = flow_hi
    views[2][:] = trace.order
    if ref.has_timestamps:
        views[3][:] = trace.timestamps
    return ref, segment


#: Segments this process has attached for shared traces, kept mapped
#: for the process lifetime (Trace arrays are views into them).
_ATTACHED: dict[str, Segment] = {}


def attach_trace(ref: SharedTraceRef):
    """Rebuild the :class:`~repro.traces.trace.Trace` behind a ref.

    Flow keys are reconstructed from their halves (one pass over the
    *distinct flows*, not the packet stream); order and timestamps are
    zero-copy views into the shared segment.
    """
    from repro.traces.trace import Trace

    ref = SharedTraceRef(*ref)
    segment = _ATTACHED.get(ref.segment)
    if segment is None:
        segment = attach_segment(ref.segment)
        _ATTACHED[ref.segment] = segment
    views = carve(segment, _trace_specs(ref))
    flow_keys = keys_from_halves(views[0], views[1])
    timestamps = views[3] if ref.has_timestamps else None
    return Trace(flow_keys, views[2], timestamps=timestamps, name=ref.name)

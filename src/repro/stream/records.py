"""The flow-record currency of the streaming pipeline.

Every stage boundary in :mod:`repro.stream` — rotation policies
exporting from a collector, sinks receiving what was exported — speaks
:class:`FlowRecord`: a frozen per-flow export carrying the packed key,
the packet count, optional byte and timing information, and the export
reason.  Timeout expiry, epoch rotation and end-of-run drains all
produce this one shape.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One exported flow record.

    Attributes:
        key: packed 104-bit flow identifier.
        packets: recorded packet count at export time.
        first_seen: flow start timestamp (seconds); None when the
            exporting stage tracks no per-flow timing (a measured
            t=0.0 is timing, and is distinct from "untracked").
        last_seen: last packet timestamp (seconds); None likewise.
        reason: why the record was exported — ``"inactive"`` /
            ``"active"`` (timeout expiry), ``"epoch"`` / ``"interval"``
            (rotation), or ``"final"`` (end-of-stream drain).
        octets: measured byte count, when the collector tracks real
            byte volumes (e.g. ``HashFlow(track_bytes=True)``); None
            means "not measured" and lets exporters fall back to their
            mean-packet-size estimate.
    """

    key: int
    packets: int
    first_seen: float | None = None
    last_seen: float | None = None
    reason: str = ""
    octets: int | None = None


def merge_flow_records(records) -> dict[int, int]:
    """Sum an iterable of :class:`FlowRecord` into ``{key: packets}``.

    Flows exported more than once (timeout re-exports, epoch spans)
    accumulate, exactly as a downstream NetFlow collector would sum
    them.
    """
    merged: dict[int, int] = {}
    for record in records:
        merged[record.key] = merged.get(record.key, 0) + record.packets
    return merged

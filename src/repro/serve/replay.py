"""Paced NetFlow v5 trace replay over UDP — the daemon's soak rig.

Turns a :class:`~repro.traces.trace.Trace` into the datagrams a real
v5 exporter would emit (one record per packet, 30 records per
datagram, via :func:`repro.export.netflow_v5.encode_datagrams`) and sends
them to a listening daemon, optionally paced to a target packet rate.

Timestamp identity with the offline pipeline is deliberate: when the
trace carries no timestamps, record ``i`` gets ``first = last =
round(i / packet_rate * 1000)`` SysUptime milliseconds, and the
daemon's decode divides by 1000 — for a ``packet_rate`` whose period
is a whole number of milliseconds (500 pps → 2 ms) that reproduces the
offline synthetic clock ``np.arange(n) / packet_rate`` bit for bit, so
live and offline runs rotate on identical packet boundaries.
"""

from __future__ import annotations

import socket
import time
from typing import Iterable, Sequence

import numpy as np

from repro.export.netflow_v5 import HEADER_BYTES, RECORD_BYTES, encode_datagrams
from repro.stream.spec import DEFAULT_PACKET_RATE


def trace_datagrams(
    trace,
    packet_rate: float = DEFAULT_PACKET_RATE,
    packet_bytes: int | None = None,
) -> list[bytes]:
    """Encode a trace as the v5 datagrams a live exporter would send.

    Args:
        trace: the :class:`~repro.traces.trace.Trace` to replay.
        packet_rate: synthetic clock rate applied when the trace has no
            timestamps (must match the pipeline spec's ``packet_rate``
            for live/offline identity).
        packet_bytes: per-packet byte size; defaults to the trace's own
            sizes when present, else the spec-level constant is the
            caller's job (the daemon applies its own default on decode
            of zero-octet records — so pass the pipeline's value here).

    Returns:
        Datagrams in stream order.
    """
    batch = trace.key_batch()
    lo, hi = batch.halves()
    n = len(lo)
    timestamps = getattr(trace, "timestamps", None)
    if timestamps is not None:
        times_ms = np.rint(np.asarray(timestamps, dtype=np.float64) * 1000.0)
    else:
        times_ms = np.rint(np.arange(n, dtype=np.float64) / packet_rate * 1000.0)
    sizes = batch.sizes
    if sizes is None:
        if packet_bytes is None:
            from repro.flow.packet import DEFAULT_PACKET_BYTES

            packet_bytes = DEFAULT_PACKET_BYTES
        sizes = np.full(n, int(packet_bytes), dtype=np.int64)
    return encode_datagrams(lo, hi, sizes, times_ms)


def replay_datagrams(
    datagrams: Sequence[bytes] | Iterable[bytes],
    address: tuple[str, int],
    pps: float | None = None,
    sock: socket.socket | None = None,
    faults=None,
) -> int:
    """Send datagrams to ``address``, optionally paced.

    Args:
        datagrams: encoded datagrams, in order.
        address: the daemon's ``(host, port)``.
        pps: target *packet* rate; None sends as fast as the socket
            accepts (soak / bench mode).  Pacing is absolute-deadline
            (each datagram waits for ``records_sent / pps`` since
            start), so short sleeps don't accumulate drift.
        sock: socket to send on (one is created and closed otherwise).
        faults: optional :class:`~repro.faults.FaultPlan` whose
            ``datagram_chaos`` entries mutate the wire stream
            deterministically (drop / duplicate / truncate) before
            sending — a lossy network in a test harness.

    Returns:
        Records (= packets) sent (counted on the post-chaos stream).
    """
    if faults is not None and faults:
        datagrams = faults.mutate_datagrams(list(datagrams))
    own = sock is None
    if own:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sent = 0
    try:
        start = time.monotonic()
        for datagram in datagrams:
            if pps:
                deadline = start + sent / pps
                delay = deadline - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            sock.sendto(datagram, address)
            sent += max(0, (len(datagram) - HEADER_BYTES) // RECORD_BYTES)
    finally:
        if own:
            sock.close()
    return sent


def replay_trace(
    trace,
    address: tuple[str, int],
    packet_rate: float = DEFAULT_PACKET_RATE,
    packet_bytes: int | None = None,
    pps: float | None = None,
    faults=None,
) -> int:
    """Encode ``trace`` and replay it to a listening daemon.

    Returns:
        Packets sent (after any ``faults`` datagram chaos).
    """
    return replay_datagrams(
        trace_datagrams(trace, packet_rate=packet_rate, packet_bytes=packet_bytes),
        address,
        pps=pps,
        faults=faults,
    )

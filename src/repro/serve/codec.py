"""Vectorized NetFlow v5 ↔ packet-array codec for the live daemon.

The UDP listener's hot path cannot afford a Python object per record:
a datagram carries up to 30 records, and the daemon must turn each one
into the arrays the shared-memory rings speak — ``(lo, hi)`` 64-bit
key halves, per-packet byte sizes, per-packet timestamps.  This module
decodes a whole datagram's record payload in one numpy pass over a
big-endian structured view (no per-record ``struct.unpack``, no
``NetFlowV5Record`` objects, no Python-int keys), and encodes whole
traces the same way for the paced replayer.

Field mapping (the packed 104-bit key is
``src<<72 | dst<<40 | sport<<24 | dport<<8 | proto``, split into
``lo = key & 2^64-1`` and ``hi = key >> 64``)::

    lo = (dst & 0xFFFFFF) << 40 | sport << 24 | dport << 8 | proto
    hi = src << 8 | dst >> 24

Both directions are exact inverses of the scalar
:mod:`repro.export.netflow_v5` pack/parse (tested bit for bit), and
``first``/``last`` SysUptime milliseconds round-trip to seconds as
``ms / 1000.0``.
"""

from __future__ import annotations

import numpy as np

from repro.export.netflow_v5 import (
    MAX_RECORDS_PER_DATAGRAM,
    RECORD_BYTES,
    encode_header,
    split_datagram,
)

#: The 48-byte v5 record as a big-endian numpy structured dtype —
#: field-for-field the ``!IIIHHIIIIHHBBBBHHBBH`` struct layout.
RECORD_DTYPE = np.dtype(
    [
        ("src_ip", ">u4"),
        ("dst_ip", ">u4"),
        ("nexthop", ">u4"),
        ("input_if", ">u2"),
        ("output_if", ">u2"),
        ("packets", ">u4"),
        ("octets", ">u4"),
        ("first_ms", ">u4"),
        ("last_ms", ">u4"),
        ("src_port", ">u2"),
        ("dst_port", ">u2"),
        ("pad1", "u1"),
        ("tcp_flags", "u1"),
        ("proto", "u1"),
        ("tos", "u1"),
        ("src_as", ">u2"),
        ("dst_as", ">u2"),
        ("src_mask", "u1"),
        ("dst_mask", "u1"),
        ("pad2", ">u2"),
    ]
)
assert RECORD_DTYPE.itemsize == RECORD_BYTES


def decode_datagram(data: bytes):
    """One v5 datagram → per-packet ring arrays.

    Tolerant like :func:`repro.export.netflow_v5.parse_datagram_partial`:
    a non-v5 or header-short datagram yields None, a truncated trailing
    record is simply not decoded.  A record with ``dPkts > 1`` (an
    upstream exporter aggregating) is expanded back into ``dPkts``
    packets of ``dOctets // dPkts`` bytes each, all carrying the
    record's ``first_ms`` timestamp — so ring occupancy counts packets,
    not records.

    Returns:
        ``(lo, hi, sizes, timestamps)`` arrays (``uint64`` /
        ``uint64`` / ``int64`` / ``float64``), or None for a datagram
        that is not NetFlow v5.
    """
    split = split_datagram(data)
    if split is None:
        return None
    _, payload = split
    fields = np.frombuffer(payload, dtype=RECORD_DTYPE)
    src = fields["src_ip"].astype(np.uint64)
    dst = fields["dst_ip"].astype(np.uint64)
    lo = (
        ((dst & np.uint64(0xFFFFFF)) << np.uint64(40))
        | (fields["src_port"].astype(np.uint64) << np.uint64(24))
        | (fields["dst_port"].astype(np.uint64) << np.uint64(8))
        | fields["proto"].astype(np.uint64)
    )
    hi = (src << np.uint64(8)) | (dst >> np.uint64(24))
    packets = fields["packets"].astype(np.int64)
    octets = fields["octets"].astype(np.int64)
    timestamps = fields["first_ms"].astype(np.float64) / 1000.0
    if (packets > 1).any():
        # Expand aggregated records back into per-packet entries.
        counts = np.maximum(packets, 1)
        sizes = octets // counts
        lo = np.repeat(lo, counts)
        hi = np.repeat(hi, counts)
        sizes = np.repeat(sizes, counts)
        timestamps = np.repeat(timestamps, counts)
        return lo, hi, sizes, timestamps
    return lo, hi, octets, timestamps


def encode_datagrams(
    lo: np.ndarray,
    hi: np.ndarray,
    sizes: np.ndarray,
    times_ms: np.ndarray,
    flow_sequence: int = 0,
    engine_id: int = 0,
) -> list[bytes]:
    """Per-packet arrays → v5 datagrams, one record per packet.

    The replayer's encoder: packet ``i`` becomes a record with
    ``dPkts = 1``, ``dOctets = sizes[i]`` and ``first = last =
    times_ms[i]``, preserving stream order; every 30 consecutive
    records share a datagram.  ``flow_sequence`` counts records across
    the whole call, as the protocol requires.

    Returns:
        Encoded datagrams in stream order.
    """
    n = len(lo)
    fields = np.zeros(n, dtype=RECORD_DTYPE)
    lo = np.asarray(lo, dtype=np.uint64)
    hi = np.asarray(hi, dtype=np.uint64)
    fields["src_ip"] = (hi >> np.uint64(8)).astype(np.uint32)
    fields["dst_ip"] = (
        ((hi & np.uint64(0xFF)) << np.uint64(24)) | (lo >> np.uint64(40))
    ).astype(np.uint32)
    fields["src_port"] = ((lo >> np.uint64(24)) & np.uint64(0xFFFF)).astype(
        np.uint16
    )
    fields["dst_port"] = ((lo >> np.uint64(8)) & np.uint64(0xFFFF)).astype(
        np.uint16
    )
    fields["proto"] = (lo & np.uint64(0xFF)).astype(np.uint8)
    fields["packets"] = 1
    fields["octets"] = np.asarray(sizes, dtype=np.int64).astype(np.uint32)
    ms = np.asarray(times_ms, dtype=np.int64).astype(np.uint32)
    fields["first_ms"] = ms
    fields["last_ms"] = ms
    body = fields.tobytes()
    datagrams = []
    for start in range(0, n, MAX_RECORDS_PER_DATAGRAM):
        count = min(MAX_RECORDS_PER_DATAGRAM, n - start)
        header = encode_header(
            count,
            sys_uptime_ms=int(ms[start + count - 1]) if count else 0,
            flow_sequence=flow_sequence,
            engine_id=engine_id,
        )
        datagrams.append(
            header
            + body[start * RECORD_BYTES : (start + count) * RECORD_BYTES]
        )
        flow_sequence += count
    return datagrams

"""NetFlow v5 datagram export/import: the one v5 wire codec.

HashFlow is a NetFlow replacement on the switch, but the records it
collects still need to reach a collector; NetFlow v5 is the lingua
franca.  This module is the only one that knows the v5 wire format
(24-byte header + up to 30 x 48-byte records): one header packer
(:func:`encode_header`), one big-endian :data:`RECORD_DTYPE`, one
vectorized record encoder (:func:`encode_records`) and one decoder
(:func:`decode_records`).  Every other entry point is a thin wrapper
over them: the exporter and the record parsers that hand records from
any :class:`FlowCollector` to stock tooling (nfdump, flow-tools,
commercial collectors), the live listener's burst decoder
:func:`decode_datagrams` and the replayer's :func:`encode_datagrams`.

The packed 104-bit key is ``src<<72 | dst<<40 | sport<<24 | dport<<8 |
proto``; the codec works on its 64-bit halves ``lo = key & 2^64-1`` and
``hi = key >> 64``::

    lo = (dst & 0xFFFFFF) << 40 | sport << 24 | dport << 8 | proto
    hi = src << 8 | dst >> 24

The 5-tuple and the packet count (dPkts) are always populated.  For
``dOctets`` the precedence is: a *measured* per-flow byte count when
the caller supplies one (collectors tracking real byte volumes, e.g.
``HashFlow(track_bytes=True)``) wins; otherwise the field is estimated
from a configurable mean packet size (the historical behaviour, kept
as the fallback).  ``first``/``last`` likewise take per-flow SysUptime
milliseconds when supplied (timeout-expiry exports know them) and fall
back to the header's ``sys_uptime_ms``.  AS numbers and interface
indices are left zero, as software exporters commonly do.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.flow.key import FLOW_KEY_BITS
from repro.flow.packet import DEFAULT_PACKET_BYTES
from repro.hashing.mixers import keys_from_halves
from repro.stream.records import UNMEASURED, merge_rows

NETFLOW_V5_VERSION = 5
MAX_RECORDS_PER_DATAGRAM = 30

_HEADER = struct.Struct("!HHIIIIBBH")
_VERSION_COUNT = struct.Struct("!HH")

#: The 48-byte v5 record as a big-endian numpy structured dtype.
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

HEADER_BYTES = _HEADER.size  # 24
RECORD_BYTES = RECORD_DTYPE.itemsize  # 48

_U64 = np.uint64

#: The per-record counters, named alike in RECORD_DTYPE and NetFlowV5Record.
_COUNTERS = ("packets", "octets", "first_ms", "last_ms")


@dataclass(frozen=True, slots=True)
class NetFlowV5Record:
    """One parsed NetFlow v5 record (the fields this library populates).

    Attributes:
        key: packed 104-bit flow identifier.
        packets: packet count (dPkts).
        octets: byte count (dOctets).
        first_ms: flow start, SysUptime milliseconds.
        last_ms: flow end, SysUptime milliseconds.
    """

    key: int
    packets: int
    octets: int
    first_ms: int = 0
    last_ms: int = 0


def encode_header(
    count: int,
    sys_uptime_ms: int = 0,
    unix_secs: int = 0,
    flow_sequence: int = 0,
    engine_id: int = 0,
    sampling_interval: int = 0,
) -> bytes:
    """Pack one 24-byte v5 header for ``count`` records."""
    return _HEADER.pack(
        NETFLOW_V5_VERSION,
        count,
        sys_uptime_ms & 0xFFFFFFFF,
        unix_secs & 0xFFFFFFFF,
        0,  # unix_nsecs
        flow_sequence & 0xFFFFFFFF,
        0,  # engine_type
        engine_id,
        sampling_interval,
    )


def encode_records(lo, hi, packets, octets, first_ms, last_ms) -> np.ndarray:
    """Key halves plus per-record counters -> v5 records.

    ``packets``/``octets``/``first_ms``/``last_ms`` are arrays (or
    scalars broadcast to every record) of integers, written modulo
    2^32 as the wire's 32-bit fields.  AS numbers, interfaces, masks,
    flags and the next hop stay zero.

    Returns:
        A :data:`RECORD_DTYPE` array; ``.tobytes()`` is the wire payload.

    Raises:
        ValueError: if a key is negative or wider than 104 bits.
    """
    lo, hi = np.asarray(lo), np.asarray(hi)
    if len(hi) and (hi.min() < 0 or hi.max() >> (FLOW_KEY_BITS - 64)):
        raise ValueError("key out of range for 104-bit flow ID")
    lo, hi = lo.astype(_U64, copy=False), hi.astype(_U64, copy=False)
    fields = np.zeros(len(lo), dtype=RECORD_DTYPE)
    fields["src_ip"] = hi >> _U64(8)
    fields["dst_ip"] = ((hi & _U64(0xFF)) << _U64(24)) | (lo >> _U64(40))
    fields["src_port"] = (lo >> _U64(24)) & _U64(0xFFFF)
    fields["dst_port"] = (lo >> _U64(8)) & _U64(0xFFFF)
    fields["proto"] = lo & _U64(0xFF)
    for name, values in zip(_COUNTERS, (packets, octets, first_ms, last_ms)):
        fields[name] = np.asarray(values, dtype=np.int64)
    return fields


def decode_records(payload) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A whole number of 48-byte records -> key halves + field view.

    Returns:
        ``(lo, hi, fields)`` — ``uint64`` key halves and the zero-copy
        :data:`RECORD_DTYPE` view over ``payload``.
    """
    fields = np.frombuffer(payload, dtype=RECORD_DTYPE)
    src = fields["src_ip"].astype(_U64)
    dst = fields["dst_ip"].astype(_U64)
    lo = (
        ((dst & _U64(0xFFFFFF)) << _U64(40))
        | (fields["src_port"].astype(_U64) << _U64(24))
        | (fields["dst_port"].astype(_U64) << _U64(8))
        | fields["proto"].astype(_U64)
    )
    hi = (src << _U64(8)) | (dst >> _U64(24))
    return lo, hi, fields


def _datagrams(
    records: np.ndarray,
    uptimes_ms: np.ndarray,
    unix_secs: int = 0,
    flow_sequence: int = 0,
    engine_id: int = 0,
    sampling_interval: int = 0,
) -> list[bytes]:
    """Chunk encoded records into datagrams of at most 30 records.

    Each header's ``sys_uptime`` is ``uptimes_ms`` at the datagram's
    last record; ``flow_sequence`` counts records from the first
    datagram on.
    """
    body = records.tobytes()
    datagrams = []
    for start in range(0, len(records), MAX_RECORDS_PER_DATAGRAM):
        end = min(start + MAX_RECORDS_PER_DATAGRAM, len(records))
        header = encode_header(
            end - start, int(uptimes_ms[end - 1]), unix_secs,
            flow_sequence + start, engine_id, sampling_interval,
        )
        datagrams.append(header + body[start * RECORD_BYTES : end * RECORD_BYTES])
    return datagrams


def _to_records(lo, hi, counters) -> list[NetFlowV5Record]:
    """Key halves + per-record counter columns (by name) -> records."""
    columns = [counters[name].tolist() for name in _COUNTERS]
    return list(map(NetFlowV5Record, keys_from_halves(lo, hi), *columns))


class NetFlowV5Exporter:
    """Packs flow records into NetFlow v5 datagrams.

    Args:
        engine_id: exporter identifier carried in every header.
        sampling_interval: value for the header's sampling field (0 =
            unsampled; set to N when exporting from
            :class:`~repro.sketches.sampled.SampledNetFlow`).
        mean_packet_bytes: used to synthesize dOctets from packet
            counts for flows without a measured byte count.

    The exporter is stateful: ``flow_sequence`` increments across calls,
    as the protocol requires.
    """

    def __init__(
        self,
        engine_id: int = 0,
        sampling_interval: int = 0,
        mean_packet_bytes: int = DEFAULT_PACKET_BYTES,
    ):
        if not 0 <= engine_id <= 0xFF:
            raise ValueError(f"engine_id out of range: {engine_id}")
        if not 0 <= sampling_interval <= 0x3FFF:
            raise ValueError(f"sampling_interval out of range: {sampling_interval}")
        if mean_packet_bytes <= 0:
            raise ValueError(f"mean_packet_bytes must be positive: {mean_packet_bytes}")
        self.engine_id = engine_id
        self.sampling_interval = sampling_interval
        self.mean_packet_bytes = mean_packet_bytes
        self.flow_sequence = 0

    def export(
        self,
        records,
        sys_uptime_ms: int = 0,
        unix_secs: int = 0,
    ) -> list[bytes]:
        """Pack a record batch into v5 datagrams, in flow-key order.

        ``records`` is a :class:`~repro.stream.records.RecordBatch`.
        Rows of one key merge first (:func:`~repro.stream.records.merge_rows`):
        packet and byte counts sum, timing spans the earliest first and
        latest last seen.  ``dOctets`` is the merged measured count; a
        flow with *any* unmeasured row falls back to the whole-flow
        estimate (packets × ``mean_packet_bytes``), since a partial
        measured sum would under-report.  ``first``/``last`` are the
        flow's timing in SysUptime milliseconds (seconds × 1000,
        rounded; a row with only one of the two uses it for both; a
        measured 0.0 counts), falling back to ``sys_uptime_ms`` for a
        flow no row times.

        Args:
            records: the records to export.
            sys_uptime_ms: exporter uptime for the header (and the
                ``first``/``last`` fallback).
            unix_secs: export wall-clock time for the header.

        Returns:
            Encoded datagrams, each carrying at most 30 records.

        Raises:
            ValueError: if a key is wider than 104 bits.
        """
        first = last = None
        if records.timed:
            first, last = records.first_seen, records.last_seen
            first, last = (
                np.round(np.where(np.isnan(first), last, first) * 1000.0),
                np.round(np.where(np.isnan(last), first, last) * 1000.0),
            )
        lo, hi, packets, octets, first, last = merge_rows(
            records.lo, records.hi, records.packets, records.octets,
            first_seen=first, last_seen=last,
        )
        octets = np.where(
            octets == UNMEASURED, packets * self.mean_packet_bytes, octets
        )
        if first is None:
            first = last = np.full(len(lo), sys_uptime_ms, dtype=np.int64)
        else:
            first = np.where(np.isnan(first), sys_uptime_ms, first).astype(np.int64)
            last = np.where(np.isnan(last), sys_uptime_ms, last).astype(np.int64)
        datagrams = _datagrams(
            encode_records(lo, hi, packets, octets, first, last),
            np.full(len(lo), sys_uptime_ms, dtype=np.int64),
            unix_secs,
            self.flow_sequence,
            self.engine_id,
            self.sampling_interval,
        )
        self.flow_sequence += len(lo)
        return datagrams


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
    records share a datagram, whose header uptime is its last record's
    ``times_ms``.  ``flow_sequence`` counts records across the whole
    call, as the protocol requires.

    Returns:
        Encoded datagrams in stream order.

    Raises:
        ValueError: if a key is negative or wider than 104 bits.
    """
    ms = np.asarray(times_ms, dtype=np.int64)
    return _datagrams(
        encode_records(lo, hi, 1, sizes, ms, ms),
        ms,
        flow_sequence=flow_sequence,
        engine_id=engine_id,
    )


def _whole_records(data) -> int | None:
    """The tolerant header rule, once: how many records a datagram
    carries.

    None for a datagram too short for a v5 header or carrying a
    different NetFlow version; otherwise ``min(count, records that
    fit)`` — a truncated trailing record is excluded, never an error.
    """
    if len(data) < HEADER_BYTES:
        return None
    version, count = _VERSION_COUNT.unpack_from(data, 0)
    if version != NETFLOW_V5_VERSION:
        return None
    return min(count, (len(data) - HEADER_BYTES) // RECORD_BYTES)


def split_datagram(data: bytes) -> tuple[dict, memoryview] | None:
    """Header + the *complete* record payload of a v5 datagram.

    The tolerant front half shared by :func:`parse_datagram` and
    :func:`parse_datagram_partial`: a datagram too short for a header,
    or carrying a different NetFlow version, yields None; otherwise
    the payload view covers ``min(count, records that fit)`` whole
    records — a truncated trailing record is excluded, never an error
    (the rule :func:`decode_datagrams` applies too).

    Returns:
        ``(header_fields, payload)`` where ``payload`` is a zero-copy
        ``memoryview`` over a whole number of 48-byte records.
    """
    complete = _whole_records(data)
    if complete is None:
        return None
    (
        version,
        count,
        sys_uptime,
        unix_secs,
        _unix_nsecs,
        flow_sequence,
        _engine_type,
        engine_id,
        sampling_interval,
    ) = _HEADER.unpack_from(data, 0)
    header = {
        "version": version,
        "count": count,
        "sys_uptime": sys_uptime,
        "unix_secs": unix_secs,
        "flow_sequence": flow_sequence,
        "engine_id": engine_id,
        "sampling_interval": sampling_interval,
    }
    payload = memoryview(data)[
        HEADER_BYTES : HEADER_BYTES + complete * RECORD_BYTES
    ]
    return header, payload


def _split_strict(data: bytes) -> tuple[dict, memoryview]:
    """:func:`split_datagram`, raising on anything but a whole datagram."""
    split = split_datagram(data)
    if split is None:
        if len(data) < HEADER_BYTES:
            raise ValueError("datagram shorter than a v5 header")
        version = _HEADER.unpack_from(data, 0)[0]
        raise ValueError(f"not a NetFlow v5 datagram (version {version})")
    header, payload = split
    if len(payload) < header["count"] * RECORD_BYTES:
        raise ValueError(
            f"datagram truncated: {len(data)} bytes for {header['count']} records"
        )
    return header, payload


def parse_datagram(data: bytes) -> tuple[dict, list[NetFlowV5Record]]:
    """Parse one NetFlow v5 datagram.

    Returns:
        ``(header_fields, records)`` where ``header_fields`` is a dict
        with ``version / count / sys_uptime / unix_secs / flow_sequence /
        engine_id / sampling_interval``.

    Raises:
        ValueError: on a malformed or non-v5 datagram.
    """
    header, payload = _split_strict(data)
    return header, _to_records(*decode_records(payload))


def parse_datagram_partial(
    data: bytes,
) -> tuple[dict | None, list[NetFlowV5Record], int]:
    """Parse as much of a v5 datagram as is actually present.

    The live-collector counterpart of :func:`parse_datagram`: a UDP
    listener cannot afford to raise away a whole datagram because the
    wire truncated its tail (or a stray non-NetFlow packet hit the
    port), so this returns what decoded cleanly plus how far decoding
    got instead of raising mid-datagram.

    Returns:
        ``(header, records, consumed)`` — ``header`` is None (with no
        records and ``consumed == 0``) for a datagram too short for a
        v5 header or of a different NetFlow version; otherwise
        ``records`` holds every complete record (at most the header's
        claimed count) and ``consumed`` is the byte offset one past the
        last decoded record.
    """
    split = split_datagram(data)
    if split is None:
        return None, [], 0
    header, payload = split
    return header, _to_records(*decode_records(payload)), HEADER_BYTES + len(payload)


def decode_datagrams(datagrams):
    """A burst of datagrams → per-packet ring arrays (the live
    listener's decode).

    Each datagram's header is checked on its own, by the tolerant rule
    of :func:`split_datagram`: a non-v5 or header-short datagram is
    skipped, a truncated trailing record is simply not decoded.  The
    payloads that remain are joined and decoded by one
    :func:`decode_records` call, so the numpy per-call cost is paid
    once per burst, not once per datagram.  Packets keep arrival
    order: datagram by datagram, record by record.

    A record with ``dPkts > 1`` (an upstream exporter aggregating) is
    expanded back into ``dPkts`` packets, all carrying the record's
    ``first_ms`` timestamp — so ring occupancy counts packets, not
    records.  Each gets ``dOctets // dPkts`` bytes and the first
    ``dOctets % dPkts`` one byte more, so the sizes sum to
    ``dOctets``.

    Returns:
        ``(lo, hi, sizes, timestamps)`` arrays (``uint64`` /
        ``uint64`` / ``int64`` / ``float64``) over every v5 datagram of
        the burst, or None when none of them is NetFlow v5 (an empty
        burst included).
    """
    payloads = []
    for data in datagrams:
        records = _whole_records(data)
        if records is not None:
            payloads.append(data[HEADER_BYTES : HEADER_BYTES + records * RECORD_BYTES])
    if not payloads:
        return None
    lo, hi, fields = decode_records(b"".join(payloads))
    packets = fields["packets"].astype(np.int64)
    octets = fields["octets"].astype(np.int64)
    timestamps = fields["first_ms"].astype(np.float64) / 1000.0
    if (packets > 1).any():
        # Expand aggregated records back into per-packet entries.
        counts = np.maximum(packets, 1)
        ends = np.cumsum(counts)
        rank = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        sizes = np.repeat(octets // counts, counts)
        sizes += rank < np.repeat(octets % counts, counts)
        return (
            np.repeat(lo, counts),
            np.repeat(hi, counts),
            sizes,
            np.repeat(timestamps, counts),
        )
    return lo, hi, octets, timestamps


def decode_datagram(data: bytes):
    """One v5 datagram → per-packet ring arrays: :func:`decode_datagrams`
    over a burst of one.

    Returns:
        ``(lo, hi, sizes, timestamps)``, or None for a datagram that
        is not NetFlow v5.
    """
    return decode_datagrams((data,))


def split_stream(data: bytes) -> list[bytes]:
    """Split concatenated v5 datagrams back into individual datagrams.

    The inverse of ``b"".join(datagrams)`` as written by durable
    rotation archives (:class:`~repro.stream.durable.RotationArchive`
    files hold one rotation's datagrams back to back): each datagram's
    length is ``HEADER_BYTES + count * RECORD_BYTES``, recoverable from
    its own header.

    Raises:
        ValueError: when the bytes are not a whole number of well-formed
            v5 datagrams (a truncated archive — which the atomic write
            discipline is there to prevent).
    """
    datagrams: list[bytes] = []
    view = memoryview(data)
    offset = 0
    while offset < len(view):
        try:
            _, payload = _split_strict(view[offset:])
        except ValueError as exc:
            raise ValueError(f"at offset {offset}: {exc}") from exc
        size = HEADER_BYTES + len(payload)
        datagrams.append(bytes(view[offset : offset + size]))
        offset += size
    return datagrams


def parse_stream(datagrams: Iterator[bytes]) -> dict[int, int]:
    """Merge a sequence of datagrams back into ``{flow: packets}``.

    Records for the same flow across datagrams are summed (as a
    collector would when an exporter splits or re-exports flows).
    """
    return {record.key: record.packets for record in parse_stream_records(datagrams)}


def parse_stream_records(datagrams: Iterator[bytes]) -> list[NetFlowV5Record]:
    """Parse a sequence of datagrams into full records, merged per flow.

    Like :func:`parse_stream` but keeps the whole record, not just the
    packet count — dOctets sum alongside dPkts and the time bounds
    widen to min(first)/max(last), which is what a summary store needs
    when it ingests archived exports (packets-only parsing is where
    byte counts used to silently vanish).  Records come back in packed
    flow-key order.

    Raises:
        ValueError: on a malformed or non-v5 datagram.
    """
    lo, hi, fields = decode_records(
        b"".join(_split_strict(datagram)[1] for datagram in datagrams)
    )
    lo, hi, packets, octets, first, last = merge_rows(
        lo,
        hi,
        fields["packets"].astype(np.int64),
        fields["octets"].astype(np.int64),
        first_seen=fields["first_ms"].astype(np.int64),
        last_seen=fields["last_ms"].astype(np.int64),
    )
    columns = {"packets": packets, "octets": octets, "first_ms": first, "last_ms": last}
    return _to_records(lo, hi, columns)

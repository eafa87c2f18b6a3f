"""Flow and packet model: 104-bit 5-tuple keys, packets, flow statistics."""

from repro.flow.batch import DEFAULT_CHUNK_SIZE, KeyBatch, iter_key_chunks
from repro.flow.key import (
    FLOW_KEY_BITS,
    FLOW_KEY_MASK,
    FlowKey,
    format_ip,
    pack_key,
    parse_ip,
    unpack_key,
)
from repro.flow.packet import DEFAULT_PACKET_BYTES, Packet
from repro.flow.stats import (
    TraceStats,
    cdf_at,
    heavy_hitters,
    size_cdf,
    top_fraction_share,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_PACKET_BYTES",
    "FLOW_KEY_BITS",
    "FLOW_KEY_MASK",
    "FlowKey",
    "KeyBatch",
    "Packet",
    "iter_key_chunks",
    "TraceStats",
    "cdf_at",
    "format_ip",
    "heavy_hitters",
    "pack_key",
    "parse_ip",
    "size_cdf",
    "top_fraction_share",
    "unpack_key",
]

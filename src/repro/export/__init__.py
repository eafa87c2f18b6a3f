"""Record export: the NetFlow v5 wire codec.

The CSV and JSON-lines record formats are written by
:class:`repro.stream.sinks.TextSink`.
"""

from repro.export.netflow_v5 import (
    HEADER_BYTES,
    MAX_RECORDS_PER_DATAGRAM,
    NETFLOW_V5_VERSION,
    RECORD_BYTES,
    NetFlowV5Exporter,
    NetFlowV5Record,
    encode_header,
    parse_datagram,
    parse_datagram_partial,
    parse_stream,
    parse_stream_records,
    split_datagram,
    split_stream,
)

__all__ = [
    "HEADER_BYTES",
    "MAX_RECORDS_PER_DATAGRAM",
    "NETFLOW_V5_VERSION",
    "RECORD_BYTES",
    "NetFlowV5Exporter",
    "NetFlowV5Record",
    "encode_header",
    "parse_datagram",
    "parse_datagram_partial",
    "parse_stream",
    "parse_stream_records",
    "split_datagram",
    "split_stream",
]

"""Streaming collection pipelines: Source → Collector → Rotation → Sinks.

One composable, spec-driven subsystem for the continuous collection
lifecycle the paper's introduction describes: packets are ingested in
batches, records rotate out of the fixed-size dataplane tables on a
policy (packet-count epochs, wall-clock windows, or RFC 3954
active/inactive timeouts), and every export fans out to transport
sinks (NetFlow v5, JSON/CSV lines, in-memory archive) and analysis
taps (heavy hitters, cardinality, anomaly detection).

Quickstart::

    from repro.stream import Pipeline

    pipeline = Pipeline(
        source={"kind": "synthetic",
                "params": {"profile": "caida", "n_flows": 20_000}},
        collector="hashflow",  # or a CollectorSpec / spec dict
        rotation={"kind": "timeout", "params": {"inactive_timeout": 15.0}},
        sinks=[{"kind": "netflow_v5"}, {"kind": "archive"}],
    )
    result = pipeline.run()          # records drained through the sinks
    spec = pipeline.spec             # frozen, JSON-round-trippable
    twin = spec.build()              # bit-identical reconstruction
"""

from repro.stream.pipeline import Pipeline, PipelineResult, StreamFeeder
from repro.stream.durable import (
    ArchiveError,
    ArchiveView,
    RotationArchive,
    read_archive,
)
from repro.stream.records import FlowRecord, RecordBatch, merge_flow_records
from repro.stream.rotation import (
    ROTATIONS,
    CountRotation,
    IntervalRotation,
    RotationPolicy,
    TimeoutRotation,
    build_rotation,
    export_and_reset,
)
from repro.stream.sinks import (
    SINKS,
    AnomalyTap,
    ArchiveSink,
    CardinalityTap,
    HeavyHitterTap,
    NetFlowV5Sink,
    Sink,
    TextSink,
    build_sink,
)
from repro.stream.sources import (
    SOURCES,
    NetwideSource,
    PcapSource,
    Source,
    SyntheticSource,
    UDPSource,
    build_source,
)
from repro.stream.spec import DEFAULT_PACKET_RATE, PipelineSpec

__all__ = [
    "AnomalyTap",
    "ArchiveError",
    "ArchiveSink",
    "ArchiveView",
    "CardinalityTap",
    "CountRotation",
    "DEFAULT_PACKET_RATE",
    "FlowRecord",
    "HeavyHitterTap",
    "IntervalRotation",
    "NetFlowV5Sink",
    "NetwideSource",
    "PcapSource",
    "Pipeline",
    "PipelineResult",
    "PipelineSpec",
    "ROTATIONS",
    "RecordBatch",
    "RotationArchive",
    "RotationPolicy",
    "SINKS",
    "SOURCES",
    "Sink",
    "Source",
    "StreamFeeder",
    "SyntheticSource",
    "TextSink",
    "TimeoutRotation",
    "UDPSource",
    "build_rotation",
    "build_sink",
    "build_source",
    "export_and_reset",
    "merge_flow_records",
    "read_archive",
]

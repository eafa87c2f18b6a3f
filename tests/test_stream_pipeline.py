"""Tests for repro.stream: pipeline execution, rotation, sinks, sources."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashflow import HashFlow
from repro.stream import (
    ArchiveSink,
    CardinalityTap,
    CountRotation,
    HeavyHitterTap,
    IntervalRotation,
    NetFlowV5Sink,
    Pipeline,
    TimeoutRotation,
    build_rotation,
    build_sink,
    build_source,
    merge_flow_records,
)
from repro.traces.profiles import CAIDA
from repro.traces.replay import split_by_packets, split_by_time
from test_collector_matrix import COLLECTOR_FACTORIES

CAIDA_SOURCE = {
    "kind": "synthetic",
    "params": {"profile": "caida", "n_flows": 800, "seed": 9},
}
TEMPORAL_SOURCE = {
    "kind": "synthetic",
    "params": {"profile": "caida", "n_flows": 800, "seed": 9,
               "interleave": "temporal"},
}
HF = {"kind": "hashflow", "params": {"main_cells": 1024, "seed": 7}}
TIMEOUT = {
    "kind": "timeout",
    "params": {"inactive_timeout": 1.0, "active_timeout": 30.0,
               "expiry_interval": 256},
}


def make_pipeline(rotation=TIMEOUT, sinks=({"kind": "archive"},), **kwargs):
    return Pipeline(
        source=TEMPORAL_SOURCE, collector=HF, rotation=rotation, sinks=sinks,
        **kwargs,
    )


class TestAcceptance:
    """The ISSUE's end-to-end contract: synthetic source -> HashFlow ->
    timeout rotation -> NetFlow v5 sink, datagrams parse back."""

    def test_netflow_parse_back_matches_reported_records(self):
        pipeline = make_pipeline(sinks=[{"kind": "netflow_v5"}, {"kind": "archive"}])
        result = pipeline.run()
        netflow, archive = pipeline.sinks
        assert result.rotations > 0
        assert netflow.parse_back() == result.records
        assert archive.merged() == result.records

    def test_spec_built_pipeline_runs_end_to_end(self):
        spec = make_pipeline(sinks=[{"kind": "netflow_v5"}]).spec
        rebuilt = Pipeline.from_spec(spec.to_dict())
        result = rebuilt.run()
        assert rebuilt.sinks[0].parse_back() == result.records
        assert result.packets > 0


def archive_per_rotation(kind, rotation, trace):
    """Run ``trace`` through a ``kind`` pipeline; ``{rotation: records}``."""
    pipeline = Pipeline(
        source=CAIDA_SOURCE,
        collector=COLLECTOR_FACTORIES[kind](),
        rotation=rotation,
        sinks=[{"kind": "archive"}],
    )
    result = pipeline.run(trace=trace)
    archived = {
        index: merge_flow_records(records)
        for index, records in pipeline.sinks[0].by_rotation.items()
    }
    return result, archived


def fresh_per_epoch(kind, epochs):
    """A fresh ``kind`` build per offline epoch; ``{epoch: records}``."""
    fresh = {}
    for index, epoch in enumerate(epochs):
        collector = COLLECTOR_FACTORIES[kind]()
        collector.process_all(epoch.key_batch())
        if collector.records():
            fresh[index] = collector.records()
    return fresh


class TestRotationParity:
    """Rotation policies against their offline references."""

    @pytest.mark.parametrize("kind", sorted(COLLECTOR_FACTORIES))
    def test_count_rotation_matches_fresh_tables_per_epoch(self, kind):
        # Each rotation's archive equals a fresh build fed only that
        # split_by_packets epoch: reset() between epochs leaves nothing.
        trace = CAIDA.generate(n_flows=1000, seed=3)
        result, archived = archive_per_rotation(
            kind, {"kind": "count", "params": {"epoch_packets": 700}}, trace
        )
        fresh = fresh_per_epoch(kind, split_by_packets(trace, 700))
        assert len(trace) % 700 and result.rotations == len(trace) // 700
        assert archived == fresh

    @pytest.mark.parametrize("kind", sorted(COLLECTOR_FACTORIES))
    def test_interval_rotation_matches_fresh_tables_per_window(self, kind):
        # The interval twin: each window's archive equals a fresh build
        # fed only that split_by_time window.  Windows of 200-290 flows
        # contend for every matrix table, so leftover state would show.
        trace = CAIDA.generate(n_flows=1000, seed=3, interleave="temporal")
        windows = list(split_by_time(trace, 15.0))
        result, archived = archive_per_rotation(
            kind, {"kind": "interval", "params": {"window": 15.0}}, trace
        )
        assert result.rotations == len(windows) - 1 > 0
        assert archived == fresh_per_epoch(kind, windows)

    def test_per_packet_admission_matches_chunked_exports(self):
        # chunk_size=1 admits and notes one packet at a time; batched
        # chunks must reproduce its export stream record for record.
        trace = CAIDA.generate(n_flows=800, seed=9, interleave="temporal")
        per_packet = make_pipeline(chunk_size=1)
        chunked = make_pipeline()
        per_packet.run(trace=trace)
        result = chunked.run(trace=trace)
        assert result.rotations > 0
        assert chunked.sinks[0].exported.flows() == per_packet.sinks[0].exported.flows()

    def test_interval_rotation_matches_time_splitter(self):
        trace = CAIDA.generate(n_flows=600, seed=5, interleave="temporal")
        window = 0.5
        merged: dict[int, int] = {}
        for epoch in split_by_time(trace, window):
            collector = HashFlow(main_cells=1024, seed=7)
            collector.process_all(epoch.key_batch())
            for key, count in collector.records().items():
                merged[key] = merged.get(key, 0) + count
        pipeline = make_pipeline(
            rotation={"kind": "interval", "params": {"window": window}}
        )
        result = pipeline.run(trace=trace)
        assert result.records == merged

    def test_chunk_size_does_not_change_results(self):
        baseline = make_pipeline().run()
        odd = make_pipeline(chunk_size=257).run()
        assert odd.records == baseline.records
        assert odd.rotations == baseline.rotations


class TestPipelineMechanics:
    def test_no_rotation_exports_once_at_drain(self):
        pipeline = make_pipeline(rotation=None)
        result = pipeline.run()
        assert result.rotations == 0
        assert {r.reason for r in pipeline.sinks[0].exported.flows()} == {"final"}
        # Without rotation, the export equals the collector's records.
        assert result.records == pipeline.collector.records()

    def test_untimestamped_stream_gets_synthetic_clock(self):
        # Uniform-interleave traces carry no timestamps; the pipeline's
        # packet_rate clock keeps timeout rotation well-defined.
        pipeline = Pipeline(
            source=CAIDA_SOURCE, collector=HF,
            rotation={"kind": "timeout",
                      "params": {"inactive_timeout": 0.01,
                                 "expiry_interval": 128}},
            sinks=[{"kind": "archive"}],
            packet_rate=1000.0,
        )
        result = pipeline.run()
        assert result.rotations > 0

    def test_timeout_rotation_requires_evictable_collector(self):
        with pytest.raises(ValueError, match="evict"):
            Pipeline(
                source=CAIDA_SOURCE,
                collector={"kind": "hashpipe", "params": {"cells_per_stage": 64,
                                                          "seed": 1}},
                rotation=TIMEOUT,
            )

    def test_timeout_rotation_requires_evictable_shards(self):
        # A sharded collector evicts through its shards; HashPipe cannot.
        shard = {"kind": "hashpipe", "params": {"cells_per_stage": 64}}
        with pytest.raises(ValueError, match="evict"):
            Pipeline(
                source=CAIDA_SOURCE,
                collector={"kind": "sharded",
                           "params": {"collector": shard, "n_shards": 2}},
                rotation=TIMEOUT,
            )

    def test_interval_rotation_needs_timestamps_or_clock(self):
        policy = IntervalRotation(1.0)
        with pytest.raises(ValueError, match="timestamps"):
            policy.admit(10, None)

    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            CountRotation(0)
        with pytest.raises(ValueError):
            IntervalRotation(-1.0)
        with pytest.raises(ValueError):
            TimeoutRotation(inactive_timeout=0)
        with pytest.raises(ValueError, match="unknown rotation"):
            build_rotation({"kind": "nope"})

    def test_run_is_single_shot(self):
        pipeline = make_pipeline()
        pipeline.run()
        # The collector and sinks hold the first run's state; a silent
        # re-run would double-count, so it must fail loudly.
        with pytest.raises(RuntimeError, match="already run"):
            pipeline.run()

    def test_meter_survives_rotation(self):
        pipeline = make_pipeline(
            rotation={"kind": "count", "params": {"epoch_packets": 1000}}
        )
        result = pipeline.run()
        # Rotation resets tables but preserves cumulative cost accounting.
        assert pipeline.collector.meter.packets == result.packets


class TestSinks:
    def test_text_sinks_line_per_export(self):
        pipeline = make_pipeline(sinks=[{"kind": "jsonl"}, {"kind": "csv"}])
        result = pipeline.run()
        jsonl, csv_sink = pipeline.sinks
        assert len(jsonl.text().splitlines()) == result.exported
        # CSV adds a header line.
        assert len(csv_sink.text().splitlines()) == result.exported + 1

    def test_text_sink_writes_file_on_close(self, tmp_path):
        path = tmp_path / "records.jsonl"
        pipeline = make_pipeline(
            sinks=[{"kind": "jsonl", "params": {"path": str(path)}}]
        )
        result = pipeline.run()
        assert len(path.read_text().splitlines()) == result.exported

    def test_heavy_hitter_tap_finds_elephants(self):
        pipeline = make_pipeline(
            rotation=None, sinks=[{"kind": "heavy_hitters",
                                   "params": {"threshold": 20}}]
        )
        result = pipeline.run()
        tap = pipeline.sinks[0]
        expected = {k: v for k, v in result.records.items() if v > 20}
        assert tap.top() == expected

    def test_cardinality_tap_counts_distinct_exports(self):
        pipeline = make_pipeline(sinks=[{"kind": "cardinality"}])
        result = pipeline.run()
        assert pipeline.sinks[0].flows_seen() == len(result.records)

    def test_anomaly_tap_summary_shape(self):
        pipeline = make_pipeline(
            sinks=[{"kind": "anomaly", "params": {"min_fanout": 50}}]
        )
        pipeline.run()
        summary = pipeline.sinks[0].summary()
        assert set(summary) == {"alerts", "scanners"}

    def test_duplicate_sink_kinds_keyed_separately(self):
        pipeline = make_pipeline(sinks=[{"kind": "archive"}, {"kind": "archive"}])
        result = pipeline.run()
        assert set(result.sinks) == {"archive", "archive#1"}

    def test_unknown_sink_kind(self):
        with pytest.raises(ValueError, match="unknown sink"):
            build_sink({"kind": "nope"})


class TestByteTracking:
    def test_measured_octets_take_precedence(self):
        pipeline = Pipeline(
            source=CAIDA_SOURCE,
            collector={"kind": "hashflow",
                       "params": {"main_cells": 4096, "seed": 7,
                                  "track_bytes": True}},
            rotation=None,
            sinks=[{"kind": "netflow_v5",
                    "params": {"mean_packet_bytes": 700}}],
            packet_bytes=123,
        )
        pipeline.run()
        from repro.export.netflow_v5 import parse_datagram

        octets = [
            record.octets
            for datagram in pipeline.sinks[0].datagrams
            for record in parse_datagram(datagram)[1]
        ]
        assert octets
        # Measured byte counts (multiples of the 123 B packet size) win
        # over the sink's 700 B/packet estimate.
        assert all(value % 123 == 0 for value in octets)

    def test_timeout_sweeps_attach_measured_octets(self):
        # Expiry sweeps probe each swept flow's byte count before the
        # eviction; exported records still carry measured octets.
        pipeline = Pipeline(
            source=TEMPORAL_SOURCE,
            collector={"kind": "hashflow",
                       "params": {"main_cells": 4096, "seed": 7,
                                  "track_bytes": True}},
            rotation=TIMEOUT,
            sinks=[{"kind": "archive"}],
            packet_bytes=123,
        )
        result = pipeline.run()
        assert result.rotations > 0
        measured = [
            r for r in pipeline.sinks[0].exported.flows() if r.octets is not None
        ]
        assert measured
        assert all(r.octets % 123 == 0 for r in measured)

    @pytest.mark.parametrize(
        "rotation",
        [{"kind": "interval", "params": {"window": 0.5}}, TIMEOUT],
        ids=["interval", "timeout"],
    )
    def test_sharded_collector_forwards_measured_octets(self, rotation):
        # Shards roomy enough to hold every flow count every byte.
        shard = {"kind": "hashflow",
                 "params": {"main_cells": 4096, "track_bytes": True}}
        pipeline = Pipeline(
            source={"kind": "synthetic",
                    "params": {"profile": "caida", "n_flows": 500, "seed": 0}},
            collector={"kind": "sharded",
                       "params": {"collector": shard, "n_shards": 2}},
            rotation=rotation,
            sinks=[{"kind": "archive"}],
            packet_bytes=700,
        )
        pipeline.run()
        exported = pipeline.sinks[0].exported.flows()
        assert exported
        assert all(r.octets == r.packets * 700 for r in exported)

    def test_estimate_fallback_without_tracking(self):
        pipeline = Pipeline(
            source=CAIDA_SOURCE, collector=HF, rotation=None,
            sinks=[{"kind": "netflow_v5",
                    "params": {"mean_packet_bytes": 700}}],
        )
        pipeline.run()
        from repro.export.netflow_v5 import parse_datagram

        for datagram in pipeline.sinks[0].datagrams[:3]:
            for record in parse_datagram(datagram)[1]:
                assert record.octets == record.packets * 700


class TestSources:
    def test_unknown_source_kind(self):
        with pytest.raises(ValueError, match="unknown source"):
            build_source({"kind": "nope"})

    def test_synthetic_source_matches_profile_generate(self):
        source = build_source(CAIDA_SOURCE)
        trace = source.trace()
        expected = CAIDA.generate(n_flows=800, seed=9)
        assert trace.flow_keys == expected.flow_keys
        assert np.array_equal(trace.order, expected.order)

    def test_pcap_source(self, tmp_path, tiny_trace):
        from repro.traces.pcap import write_pcap

        path = tmp_path / "tiny.pcap"
        write_pcap(tiny_trace, path)
        source = build_source({"kind": "pcap", "params": {"path": str(path)}})
        assert source.trace().true_sizes() == tiny_trace.true_sizes()

    def test_netwide_source_amplifies_by_path_length(self, tiny_trace):
        source = build_source(
            {"kind": "netwide",
             "params": {"profile": "caida", "n_flows": 50, "seed": 3,
                        "k_edge": 2, "k_core": 1}}
        )
        base = CAIDA.generate(n_flows=50, seed=3)
        trace = source.trace()
        # Every packet appears once per switch on its flow's path.
        assert len(trace) >= len(base)

    def test_netwide_pipeline_runs(self):
        pipeline = Pipeline(
            source={"kind": "netwide",
                    "params": {"profile": "caida", "n_flows": 100, "seed": 3,
                               "k_edge": 2, "k_core": 1}},
            collector=HF,
            rotation={"kind": "count", "params": {"epoch_packets": 200}},
            sinks=[{"kind": "archive"}],
        )
        result = pipeline.run()
        assert result.packets > 0
        assert result.records

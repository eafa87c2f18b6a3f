"""Tests for repro.core.adaptive, and count rotation of HashFlow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveHashFlow
from repro.core.hashflow import HashFlow
from repro.flow.batch import KeyBatch
from repro.flow.packet import Packet
from repro.stream import Pipeline, StreamFeeder, build_rotation
from repro.traces.trace import trace_from_keys

_SOURCE = {"kind": "synthetic", "params": {"profile": "caida", "n_flows": 16}}


def rotate(keys, epoch_packets, collector=None):
    """Run ``keys`` through a count-rotation pipeline.

    Returns the pipeline (its collector and archive sink) and the result.
    """
    pipeline = Pipeline(
        source=_SOURCE,
        collector=collector or HashFlow(main_cells=128, seed=1),
        rotation={"kind": "count", "params": {"epoch_packets": epoch_packets}},
        sinks=[{"kind": "archive"}],
    )
    return pipeline, pipeline.run(trace=trace_from_keys(list(keys)))


class TestCountRotation:
    def test_rotation_happens(self):
        _, result = rotate([i % 30 for i in range(350)], epoch_packets=100)
        assert result.rotations == 3

    def test_records_span_epochs(self):
        pipeline, result = rotate([7] * 120, epoch_packets=50)  # one flow
        assert result.records == {7: 120}
        per_epoch = {
            index: [r.packets for r in records.flows()]
            for index, records in pipeline.sinks[0].by_rotation.items()
        }
        assert per_epoch == {0: [50], 1: [50], 2: [20]}

    def test_rotation_resets_live_tables(self):
        collector = HashFlow(main_cells=64, seed=1)
        exported = []
        feeder = StreamFeeder(
            collector,
            build_rotation({"kind": "count", "params": {"epoch_packets": 10}}),
            lambda records, rotation, now: exported.extend(records.flows()),
        )
        batch = KeyBatch([1] * 10)
        lo, hi = batch.halves()
        feeder.feed(batch.keys, lo, hi, None, np.arange(10.0))
        assert collector.records() == {}  # rotated at the boundary
        assert [(r.key, r.packets, r.reason) for r in exported] == [(1, 10, "epoch")]

    def test_meter_survives_rotation(self):
        pipeline, _ = rotate(
            [i % 5 for i in range(30)], 10, HashFlow(main_cells=64, seed=1)
        )
        assert pipeline.collector.meter.packets == 30

    def test_epoching_avoids_saturation(self):
        """A long skewed stream overflows plain HashFlow's fixed tables;
        rotation keeps reporting everything (the adaptivity win)."""
        plain = HashFlow(main_cells=64, ancillary_cells=64, seed=2)
        stream = list(range(1000))  # 1000 distinct single-packet flows
        plain.process_all(stream)
        _, rotating = rotate(
            stream, 200, HashFlow(main_cells=64, ancillary_cells=64, seed=2)
        )
        assert len(rotating.records) > len(plain.records())

    def test_validation(self):
        with pytest.raises(ValueError):
            rotate([1, 2, 3], epoch_packets=0)


class TestAdaptiveHashFlow:
    def test_behaves_like_hashflow_when_unstressed(self):
        a = AdaptiveHashFlow(main_cells=256, seed=1)
        h = HashFlow(main_cells=256, seed=1)
        stream = [i % 50 for i in range(500)]
        a.process_all(stream)
        h.process_all(stream)
        assert a.records() == h.records()
        assert a.margin == 0  # no ancillary churn, no adaptation

    def test_margin_grows_under_churn(self):
        """Overwhelming mice churn should raise the promotion margin."""
        a = AdaptiveHashFlow(
            main_cells=32, ancillary_cells=32, window=256, seed=2
        )
        a.process_all(range(20_000))  # endless distinct mice
        assert a.margin > 0

    def test_reset_clears_margin_and_window(self):
        a = AdaptiveHashFlow(
            main_cells=32, ancillary_cells=32, window=256, seed=2
        )
        a.process_all(range(5_000))
        assert a.margin > 0
        a.reset()
        assert (a.margin, a._window_offers, a._window_replacements) == (0, 0, 0)

    def test_margin_bounded(self):
        a = AdaptiveHashFlow(
            main_cells=16, ancillary_cells=16, window=128, max_margin=3, seed=2
        )
        a.process_all(range(50_000))
        assert a.margin <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveHashFlow(main_cells=16, window=0)
        with pytest.raises(ValueError):
            AdaptiveHashFlow(main_cells=16, max_margin=-1)

    def test_still_counts_exactly_for_resident_flows(self):
        a = AdaptiveHashFlow(main_cells=512, seed=3)
        for _ in range(25):
            a.process(42)
        assert a.query(42) == 25

    def test_packet_sizes_reach_byte_counters(self):
        """Batch sizes and ``process_packet`` feed the byte counters
        exactly as they do for plain HashFlow."""
        batch = KeyBatch([5, 5, 6], sizes=np.array([100, 200, 300]))
        a = AdaptiveHashFlow(main_cells=64, track_bytes=True, seed=1)
        h = HashFlow(main_cells=64, track_bytes=True, seed=1)
        a.process_batch(batch)
        h.process_batch(batch)
        assert a.byte_records() == h.byte_records() == {5: 300, 6: 300}
        a.process_packet(Packet(key=7, size=64))
        assert a.byte_query(7) == 64

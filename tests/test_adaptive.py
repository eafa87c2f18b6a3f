"""Tests for repro.core.adaptive."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveHashFlow, EpochedHashFlow, merge_records
from repro.core.hashflow import HashFlow
from repro.flow.batch import KeyBatch
from repro.flow.packet import Packet


class TestMergeRecords:
    def test_sums_counts(self):
        into = {1: 2}
        merge_records(into, {1: 3, 2: 5})
        assert into == {1: 5, 2: 5}

    def test_empty_merge(self):
        into = {1: 1}
        merge_records(into, {})
        assert into == {1: 1}


class TestEpochedHashFlow:
    def test_rotation_happens(self):
        inner = HashFlow(main_cells=128, seed=1)
        e = EpochedHashFlow(inner, epoch_packets=100)
        e.process_all([i % 30 for i in range(350)])
        assert e.epochs_completed == 3

    def test_records_span_epochs(self):
        inner = HashFlow(main_cells=128, seed=1)
        e = EpochedHashFlow(inner, epoch_packets=50)
        stream = [7] * 120  # one flow across multiple epochs
        e.process_all(stream)
        assert e.records()[7] == 120
        assert e.query(7) == 120

    def test_rotation_resets_live_tables(self):
        inner = HashFlow(main_cells=64, seed=1)
        e = EpochedHashFlow(inner, epoch_packets=10)
        e.process_all([1] * 10)
        assert inner.records() == {}  # just rotated
        assert e.records() == {1: 10}

    def test_meter_survives_rotation(self):
        inner = HashFlow(main_cells=64, seed=1)
        e = EpochedHashFlow(inner, epoch_packets=10)
        e.process_all([i % 5 for i in range(30)])
        assert e.meter.packets == 30

    def test_epoching_avoids_saturation(self):
        """A long skewed stream overflows plain HashFlow's fixed tables;
        rotation keeps reporting everything (the adaptivity win)."""
        plain = HashFlow(main_cells=64, ancillary_cells=64, seed=2)
        rotating = EpochedHashFlow(
            HashFlow(main_cells=64, ancillary_cells=64, seed=2), epoch_packets=200
        )
        stream = list(range(1000))  # 1000 distinct single-packet flows
        plain.process_all(stream)
        rotating.process_all(stream)
        assert len(rotating.records()) > len(plain.records())

    def test_manual_rotate_returns_epoch_records(self):
        e = EpochedHashFlow(HashFlow(main_cells=64), epoch_packets=10_000)
        e.process_all([1, 1, 2])
        exported = e.rotate()
        assert exported == {1: 2, 2: 1}

    def test_reset(self):
        e = EpochedHashFlow(HashFlow(main_cells=64), epoch_packets=10)
        e.process_all([1] * 25)
        e.reset()
        assert e.records() == {}
        assert e.epochs_completed == 0

    def test_memory_is_inner_only(self):
        inner = HashFlow(main_cells=64)
        e = EpochedHashFlow(inner, epoch_packets=10)
        assert e.memory_bits == inner.memory_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            EpochedHashFlow(HashFlow(main_cells=8), epoch_packets=0)

    def test_cardinality_single_epoch_passthrough(self):
        e = EpochedHashFlow(HashFlow(main_cells=256), epoch_packets=10_000)
        e.process_all(range(50))
        assert e.estimate_cardinality() == pytest.approx(50, rel=0.3)


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

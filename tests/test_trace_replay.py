"""Tests for repro.traces.replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashflow import HashFlow
from repro.specs import CollectorSpec
from repro.traces.replay import (
    EpochRunner,
    split_by_packets,
    split_by_time,
)
from repro.traces.trace import Trace, trace_from_keys


class TestSplitByPackets:
    def test_epoch_sizes(self):
        t = trace_from_keys(list(range(10)))
        epochs = list(split_by_packets(t, 4))
        assert [len(e) for e in epochs] == [4, 4, 2]

    def test_packets_partitioned_exactly(self, small_trace):
        epochs = list(split_by_packets(small_trace, 1000))
        reassembled = [k for e in epochs for k in e.key_list()]
        assert reassembled == small_trace.key_list()

    def test_flow_spanning_epochs(self):
        t = trace_from_keys([7, 8, 7, 7, 8, 7])
        epochs = list(split_by_packets(t, 3))
        assert epochs[0].true_sizes() == {7: 2, 8: 1}
        assert epochs[1].true_sizes() == {7: 2, 8: 1}

    def test_validation(self, tiny_trace):
        with pytest.raises(ValueError):
            list(split_by_packets(tiny_trace, 0))


class TestSplitByTime:
    def make_timed(self) -> Trace:
        return Trace(
            [1, 2],
            np.array([0, 1, 0, 1, 0]),
            timestamps=np.array([0.1, 0.5, 1.2, 1.9, 3.5]),
        )

    def test_windows(self):
        epochs = list(split_by_time(self.make_timed(), 1.0))
        assert [len(e) for e in epochs] == [2, 2, 1]

    def test_requires_timestamps(self, tiny_trace):
        with pytest.raises(ValueError, match="timestamps"):
            list(split_by_time(tiny_trace, 1.0))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            list(split_by_time(self.make_timed(), 0.0))


class TestEpochRunner:
    def test_per_epoch_reports(self, small_trace):
        runner = EpochRunner(HashFlow(main_cells=4096, seed=1))
        reports = runner.run(small_trace, epoch_packets=2000)
        assert sum(r.packets for r in reports) == len(small_trace)
        assert [r.index for r in reports] == list(range(len(reports)))

    def test_fresh_collector_per_epoch(self, small_trace, monkeypatch):
        built = []
        build = CollectorSpec.build

        def recording_build(spec, *args, **kwargs):
            collector = build(spec, *args, **kwargs)
            built.append(collector)
            return collector

        monkeypatch.setattr(CollectorSpec, "build", recording_build)
        runner = EpochRunner(HashFlow(main_cells=4096, seed=1))
        reports = runner.run(small_trace, epoch_packets=2000)
        assert len(built) == len(reports)
        # Each epoch's collector saw only that epoch's packets.
        assert [c.meter.packets for c in built] == [r.packets for r in reports]

    def test_merge_approximates_truth_when_roomy(self, small_trace):
        runner = EpochRunner(HashFlow(main_cells=8192, seed=1))
        reports = runner.run(small_trace, epoch_packets=1500)
        merged = EpochRunner.merge(reports)
        truth = small_trace.true_sizes()
        # With ample room every epoch records exactly, so sums match.
        exact = sum(1 for k, v in merged.items() if truth.get(k) == v)
        assert exact / len(truth) > 0.95

    def test_epoching_beats_single_table_under_pressure(self, small_trace):
        """Small tables saturate on the full trace; per-epoch resets keep
        coverage high — the operational argument for epochs."""
        single = HashFlow(main_cells=256, seed=2)
        single.process_all(small_trace.keys())
        single_coverage = len(single.records()) / small_trace.num_flows

        runner = EpochRunner(HashFlow(main_cells=256, seed=2))
        reports = runner.run(small_trace, epoch_packets=700)
        merged = EpochRunner.merge(reports)
        epoch_coverage = len(merged) / small_trace.num_flows
        assert epoch_coverage > single_coverage

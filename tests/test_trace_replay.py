"""Tests for repro.traces.replay, and count rotation over its epochs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashflow import HashFlow
from repro.stream import Pipeline, merge_flow_records
from repro.traces.replay import split_by_packets, split_by_time
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


def timed_trace() -> Trace:
    """Five packets over 1 s windows [0, 1), [1, 2) and [3, 4)."""
    return Trace(
        [1, 2],
        np.array([0, 1, 0, 1, 0]),
        timestamps=np.array([0.1, 0.5, 1.2, 1.9, 3.5]),
    )


class TestSplitByTime:
    def test_windows(self):
        epochs = list(split_by_time(timed_trace(), 1.0))
        assert [len(e) for e in epochs] == [2, 2, 1]

    def test_requires_timestamps(self, tiny_trace):
        with pytest.raises(ValueError, match="timestamps"):
            list(split_by_time(tiny_trace, 1.0))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            list(split_by_time(timed_trace(), 0.0))


def run_epochs(trace, epoch_packets, main_cells, seed):
    """Count-rotate ``trace`` through a HashFlow pipeline."""
    pipeline = Pipeline(
        source={"kind": "synthetic", "params": {"profile": "caida", "n_flows": 16}},
        collector={"kind": "hashflow",
                   "params": {"main_cells": main_cells, "seed": seed}},
        rotation={"kind": "count", "params": {"epoch_packets": epoch_packets}},
        sinks=[{"kind": "archive"}],
    )
    return pipeline, pipeline.run(trace=trace)


class TestCountRotationEpochs:
    def test_one_rotation_per_epoch(self, small_trace):
        pipeline, result = run_epochs(small_trace, 2000, 4096, seed=1)
        epochs = -(-len(small_trace) // 2000)
        assert result.packets == len(small_trace)
        assert sorted(pipeline.sinks[0].by_rotation) == list(range(epochs))

    def test_fresh_tables_per_epoch(self, small_trace):
        # Each epoch's export equals a fresh collector fed only that
        # epoch's packets: no state leaks across the reset.
        pipeline, _ = run_epochs(small_trace, 2000, 4096, seed=1)
        archived = pipeline.sinks[0].by_rotation
        epochs = list(split_by_packets(small_trace, 2000))
        assert len(archived) == len(epochs)
        for index, epoch in enumerate(epochs):
            fresh = HashFlow(main_cells=4096, seed=1)
            fresh.process_all(epoch.key_batch())
            assert merge_flow_records(archived[index]) == fresh.records()

    def test_merge_approximates_truth_when_roomy(self, small_trace):
        _, result = run_epochs(small_trace, 1500, 8192, seed=1)
        truth = small_trace.true_sizes()
        # With ample room every epoch records exactly, so sums match.
        exact = sum(1 for k, v in result.records.items() if truth.get(k) == v)
        assert exact / len(truth) > 0.95

    def test_epoching_beats_single_table_under_pressure(self, small_trace):
        """Small tables saturate on the full trace; per-epoch resets keep
        coverage high — the operational argument for epochs."""
        single = HashFlow(main_cells=256, seed=2)
        single.process_all(small_trace.keys())
        single_coverage = len(single.records()) / small_trace.num_flows

        _, result = run_epochs(small_trace, 700, 256, seed=2)
        epoch_coverage = len(result.records) / small_trace.num_flows
        assert epoch_coverage > single_coverage


class TestIntervalRotationWindows:
    def test_empty_windows_skipped_like_splitter(self):
        # Window [2, 3) holds no packet: neither the splitter nor the
        # interval rotation yields an empty epoch for it.
        trace = timed_trace()
        pipeline = Pipeline(
            source={"kind": "synthetic", "params": {"profile": "caida", "n_flows": 16}},
            collector={"kind": "exact", "params": {}},
            rotation={"kind": "interval", "params": {"window": 1.0}},
            sinks=[{"kind": "archive"}],
        )
        result = pipeline.run(trace=trace)
        windows = list(split_by_time(trace, 1.0))
        archived = pipeline.sinks[0].by_rotation
        assert result.rotations == len(windows) - 1 == 2
        assert [merge_flow_records(archived[i]) for i in sorted(archived)] == [
            w.true_sizes() for w in windows
        ]

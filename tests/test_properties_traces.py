"""Property-based tests for the trace substrate (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.replay import split_by_packets
from repro.traces.sampling import sample_deterministic
from repro.traces.trace import trace_from_keys

key_streams = st.lists(st.integers(1, 25), min_size=1, max_size=200)


class TestTraceContainerProperties:
    @settings(max_examples=40, deadline=None)
    @given(key_streams)
    def test_true_sizes_partition_packets(self, keys):
        trace = trace_from_keys(keys)
        assert sum(trace.true_sizes().values()) == len(keys)
        assert set(trace.true_sizes()) == set(keys)

    @settings(max_examples=40, deadline=None)
    @given(key_streams, st.integers(0, 200))
    def test_truncate_is_prefix(self, keys, n):
        trace = trace_from_keys(keys)
        truncated = trace.truncate_packets(n)
        assert truncated.key_list() == keys[: min(n, len(keys))]

    @settings(max_examples=40, deadline=None)
    @given(key_streams, st.data())
    def test_subset_preserves_order_and_counts(self, keys, data):
        trace = trace_from_keys(keys)
        n = data.draw(st.integers(1, trace.num_flows))
        sub = trace.subset_flows(n)
        chosen = set(sub.flow_keys)
        assert sub.key_list() == [k for k in keys if k in chosen]
        full = trace.true_sizes()
        for key, count in sub.true_sizes().items():
            assert full[key] == count


class TestSplitProperties:
    @settings(max_examples=40, deadline=None)
    @given(key_streams, st.integers(1, 50))
    def test_epochs_reassemble_exactly(self, keys, epoch):
        trace = trace_from_keys(keys)
        epochs = list(split_by_packets(trace, epoch))
        reassembled = [k for e in epochs for k in e.key_list()]
        assert reassembled == keys

    @settings(max_examples=40, deadline=None)
    @given(key_streams, st.integers(1, 50))
    def test_epoch_merge_equals_truth_for_exact_collector(self, keys, epoch):
        from repro.stream import Pipeline

        trace = trace_from_keys(keys)
        pipeline = Pipeline(
            source={"kind": "synthetic",
                    "params": {"profile": "caida", "n_flows": 16}},
            collector={"kind": "exact"},
            rotation={"kind": "count", "params": {"epoch_packets": epoch}},
        )
        assert pipeline.run(trace=trace).records == trace.true_sizes()


class TestSamplingProperties:
    @settings(max_examples=40, deadline=None)
    @given(key_streams, st.integers(1, 20))
    def test_deterministic_sampling_counts(self, keys, period):
        trace = trace_from_keys(keys)
        sampled = sample_deterministic(trace, period)
        expected = (len(keys) + period - 1) // period
        assert len(sampled) == expected

    @settings(max_examples=40, deadline=None)
    @given(key_streams, st.integers(1, 20))
    def test_sampled_counts_bounded_by_truth(self, keys, period):
        trace = trace_from_keys(keys)
        sampled = sample_deterministic(trace, period)
        truth = trace.true_sizes()
        for key, count in sampled.true_sizes().items():
            assert 1 <= count <= truth[key]

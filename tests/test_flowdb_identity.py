"""The flowdb bit-identity contract (DESIGN §12), property-tested.

Three claims, each exact — no tolerance anywhere:

1. **Merge identity.**  Splitting a record set into per-window (and
   per-shard) pieces, summarizing each, and merging the summaries
   yields byte-for-byte the summary of the concatenated records —
   across seeds, shard counts, and merge shapes.
2. **Offline ground truth.**  Querying a store built from a pipeline's
   durable archive returns exactly the heavy-hitter set and counts of
   replaying the same trace through the offline pipeline.
3. **Parents answer alone.**  After ``merge_up``, queries covered by
   parent nodes never read child data — verified by deleting the
   children outright.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowdb import (
    FlowStore,
    FlowSummary,
    QuerySpec,
    StoreSpec,
    execute,
    merge_summaries,
)
from repro.netwide.merge import merge_max, merge_sum
from repro.stream import Pipeline
from repro.stream.records import FlowRecord


def topk_truth(counts: dict[int, int], k: int) -> list[tuple[int, int]]:
    """The reference top-k order: descending count, ascending key."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


counts_sets = st.dictionaries(
    st.integers(min_value=0, max_value=(1 << 104) - 1),
    st.integers(min_value=1, max_value=1 << 40),
    max_size=60,
)


class TestMergeIdentityProperties:
    @settings(max_examples=60, deadline=None)
    @given(sets=st.lists(counts_sets, max_size=5))
    def test_summary_merges_match_netwide_merge(self, sets):
        summaries = [FlowSummary.from_counts(c) for c in sets]
        assert merge_summaries(summaries, mode="sum").counts() == merge_sum(sets)
        assert merge_summaries(summaries, mode="max").counts() == merge_max(sets)

    @settings(max_examples=40, deadline=None)
    @given(
        counts=counts_sets,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shards=st.integers(min_value=1, max_value=7),
        windows=st.integers(min_value=1, max_value=6),
    )
    def test_sharded_windowed_summaries_equal_concatenation(
        self, counts, seed, shards, windows
    ):
        # Deal each flow's packets into random (window, shard) pieces,
        # summarize every piece, merge window-wise then overall: the
        # result must equal one summary of the whole record set.
        rng = random.Random(seed)
        pieces: dict[tuple[int, int], dict[int, int]] = {}
        for key, total in counts.items():
            remaining = total
            while remaining:
                chunk = rng.randint(1, remaining)
                remaining -= chunk
                slot = (rng.randrange(windows), rng.randrange(shards))
                bucket = pieces.setdefault(slot, {})
                bucket[key] = bucket.get(key, 0) + chunk
        per_window = [
            merge_summaries(
                [
                    FlowSummary.from_counts(pieces.get((w, s), {}))
                    for s in range(shards)
                ],
                mode="sum",
            )
            for w in range(windows)
        ]
        merged = merge_summaries(per_window, mode="sum")
        whole = FlowSummary.from_counts(counts)
        assert merged.counts() == whole.counts()
        for k in (1, 5, len(counts) or 1):
            assert merged.top_k(k) == topk_truth(counts, k)

    @settings(max_examples=40, deadline=None)
    @given(
        counts=counts_sets,
        k=st.integers(min_value=1, max_value=70),
    )
    def test_top_k_equals_reference_sort(self, counts, k):
        assert FlowSummary.from_counts(counts).top_k(k) == topk_truth(counts, k)

    @settings(max_examples=30, deadline=None)
    @given(
        sets=st.lists(counts_sets, min_size=1, max_size=4),
        fanout=st.integers(min_value=2, max_value=4),
    )
    def test_store_hierarchy_preserves_counts(self, tmp_path_factory, sets, fanout):
        root = tmp_path_factory.mktemp("flowstore")
        store = FlowStore(root / "s", StoreSpec(fanout=fanout))
        by_rotation = {
            w: [FlowRecord(key=k, packets=c) for k, c in counts.items()]
            for w, counts in enumerate(sets)
        }
        store.ingest_rotations("v", by_rotation)
        store.merge_up("v")
        windows = store.leaf_windows("v")
        assert store.summarize("v", windows).counts() == merge_sum(sets)


class TestOfflineGroundTruth:
    def _run_pipeline(self, tmp_path, profile: str, seed: int, name: str):
        pipeline = Pipeline(
            source={
                "kind": "synthetic",
                "params": {"profile": profile, "n_flows": 2000, "seed": seed},
            },
            collector="exact",
            rotation={"kind": "interval", "params": {"window": 0.05}},
            sinks=[
                {"kind": "netflow_v5",
                 "params": {"directory": str(tmp_path / f"arch-{name}")}},
                {"kind": "archive"},
            ],
        )
        pipeline.run()
        archive = pipeline.sinks[1]
        assert len(archive.by_rotation) > 2, "want a multi-window run"
        return archive

    def test_store_topk_is_bit_identical_to_offline_replay(self, tmp_path):
        archive = self._run_pipeline(tmp_path, "caida", seed=7, name="a")
        store = FlowStore(tmp_path / "store")
        store.ingest_archive("pop-a", tmp_path / "arch-a")
        store.merge_up("pop-a")
        truth = archive.merged()
        for k in (1, 10, 100):
            answer = execute(store, QuerySpec(op="topk", k=k))
            assert [
                (r["key"], r["packets"]) for r in answer["results"]
            ] == topk_truth(truth, k)
        card = execute(store, QuerySpec(op="cardinality"))
        assert card["flows"] == len(truth)
        heavy = topk_truth(truth, 1)[0][0]
        hit = execute(store, QuerySpec(op="lookup", key=heavy))
        assert hit["packets"] == truth[heavy]
        # The per-window drill-down re-sums to the exact total.
        series = hit["by_vantage"]["pop-a"]["series"]
        assert sum(p["packets"] for p in series) == truth[heavy]

    def test_multi_vantage_matches_netwide_merge(self, tmp_path):
        archives = {
            "pop-a": self._run_pipeline(tmp_path, "caida", seed=1, name="a"),
            "pop-b": self._run_pipeline(tmp_path, "campus", seed=2, name="b"),
        }
        store = FlowStore(tmp_path / "store")
        for vantage, _ in archives.items():
            store.ingest_archive(
                vantage, tmp_path / f"arch-{vantage.split('-')[1]}"
            )
            store.merge_up(vantage)
        merged_sets = [a.merged() for a in archives.values()]
        for mode, reference in (
            ("max", merge_max(merged_sets)),
            ("sum", merge_sum(merged_sets)),
        ):
            answer = execute(store, QuerySpec(op="topk", k=50, merge=mode))
            assert [
                (r["key"], r["packets"]) for r in answer["results"]
            ] == topk_truth(reference, 50)

    def test_parents_answer_without_children(self, tmp_path):
        archive = self._run_pipeline(tmp_path, "caida", seed=7, name="a")
        store = FlowStore(tmp_path / "store", StoreSpec(fanout=2))
        store.ingest_archive("pop-a", tmp_path / "arch-a")
        store.merge_up("pop-a")
        truth = archive.merged()
        # Any window covered by a parent has its leaf deleted: if the
        # planner re-read children, these queries would now fail.
        covered = set()
        for level in store.levels("pop-a"):
            if level == 0:
                continue
            for ref in store.nodes("pop-a", level):
                covered.update(ref.windows)
        assert covered, "hierarchy built no parents"
        for window in covered:
            leaf = (
                tmp_path / "store" / "vantages" / "pop-a" / "L0"
                / f"w{window:08d}.flow"
            )
            if leaf.exists():
                leaf.unlink()
        answer = execute(store, QuerySpec(op="topk", k=20))
        assert [
            (r["key"], r["packets"]) for r in answer["results"]
        ] == topk_truth(truth, 20)

    def test_last_n_windows_matches_partial_replay(self, tmp_path):
        archive = self._run_pipeline(tmp_path, "caida", seed=9, name="a")
        store = FlowStore(tmp_path / "store")
        store.ingest_archive("pop-a", tmp_path / "arch-a")
        store.merge_up("pop-a")
        rotations = sorted(archive.by_rotation)
        last = 2
        reference = merge_sum(
            [
                {r.key: r.packets for r in archive.by_rotation[rot].flows()}
                for rot in rotations[-last:]
            ]
        )
        # by_rotation lists each rotation's records verbatim; duplicate
        # keys within one rotation would break the dict comprehension,
        # so assert the premise first.
        for rot in rotations[-last:]:
            keys = [r.key for r in archive.by_rotation[rot].flows()]
            assert len(keys) == len(set(keys))
        answer = execute(store, QuerySpec(op="topk", k=30, last=last))
        assert [
            (r["key"], r["packets"]) for r in answer["results"]
        ] == topk_truth(reference, 30)

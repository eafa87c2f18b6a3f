"""Tests for repro.netwide.sharding."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import flow_set_coverage
from repro.core.hashflow import HashFlow
from repro.netwide.sharding import ShardedCollector
from repro.specs import CollectorSpec, SpecError, build


def make(n_shards: int, cells_per_shard: int) -> ShardedCollector:
    return ShardedCollector(
        CollectorSpec("hashflow", {"main_cells": cells_per_shard, "seed": 100}),
        n_shards=n_shards,
        seed=1,
    )


class TestPartitioning:
    def test_each_flow_owned_by_one_shard(self, small_trace):
        sharded = make(4, 512)
        sharded.process_all(small_trace.keys())
        seen: dict[int, int] = {}
        for i, shard in enumerate(sharded.shards.values()):
            for key in shard.records():
                assert key not in seen, "flow appears in two shards"
                seen[key] = i

    def test_shard_assignment_stable(self):
        sharded = make(8, 64)
        for key in range(200):
            assert sharded.shard_of(key) == sharded.shard_of(key)

    def test_load_roughly_balanced(self, small_trace):
        sharded = make(4, 2048)
        sharded.process_all(small_trace.keys())
        loads = sharded.shard_loads().values()
        assert sum(loads) == len(small_trace)
        # Flow-hash balancing is per-flow, not per-packet; heavy flows
        # skew packets, so allow a wide band.
        assert max(loads) < 0.7 * sum(loads)

    def test_validation(self):
        with pytest.raises(ValueError):
            make(0, 64)

    def test_spec_with_removed_jobs_field_refused(self):
        # Specs saved while shard-parallel ingest existed carry "jobs";
        # building one must fail loudly rather than drop the field.
        spec = CollectorSpec(
            "sharded",
            {
                "collector": {"kind": "hashflow", "params": {"main_cells": 64}},
                "n_shards": 2,
                "seed": 1,
                "jobs": 2,
            },
        )
        with pytest.raises(SpecError, match="jobs"):
            build(spec)


class TestCapacityScaling:
    def test_k_shards_match_one_big_table(self, small_trace):
        """The sharding claim: k tables of n cells ≈ one table of k*n
        cells in coverage."""
        small = HashFlow(main_cells=2000, seed=5)
        small.process_all(small_trace.keys())
        sharded = make(4, 500)  # same total: 4 x 500
        sharded.process_all(small_trace.keys())
        truth = small_trace.true_sizes()
        single = flow_set_coverage(small.records(), truth)
        shard_cov = flow_set_coverage(sharded.records(), truth)
        assert shard_cov == pytest.approx(single, abs=0.05)

    def test_adding_shards_increases_coverage(self, small_trace):
        truth = small_trace.true_sizes()
        coverages = []
        for k in (1, 2, 4):
            sharded = make(k, 400)
            sharded.process_all(small_trace.keys())
            coverages.append(flow_set_coverage(sharded.records(), truth))
        assert coverages == sorted(coverages)


class TestQueries:
    def test_query_routes_to_owner(self, tiny_trace):
        sharded = make(3, 64)
        sharded.process_all(tiny_trace.keys())
        for key, count in tiny_trace.true_sizes().items():
            assert sharded.query(key) == count

    def test_cardinality_sums_shards(self, small_trace):
        sharded = make(4, 4096)
        sharded.process_all(small_trace.keys())
        assert sharded.estimate_cardinality() == pytest.approx(
            small_trace.num_flows, rel=0.2
        )

    def test_heavy_hitters_union(self, small_trace):
        sharded = make(4, 1024)
        sharded.process_all(small_trace.keys())
        truth = {k for k, v in small_trace.true_sizes().items() if v > 50}
        reported = set(sharded.heavy_hitters(50))
        if truth:
            assert len(truth & reported) / len(truth) > 0.9

    def test_reset(self):
        sharded = make(2, 64)
        sharded.process_all(range(100))
        sharded.reset()
        assert sharded.records() == {}
        assert sharded.meter.packets == 0

    def test_memory_sums_shards(self):
        sharded = make(3, 100)
        assert sharded.memory_bits == 3 * HashFlow(main_cells=100).memory_bits


class TestBatchedUpdates:
    """ShardedCollector.process_batch mirrors the query_batch routing."""

    def test_bit_identical_to_scalar_routing(self, small_trace):
        scalar = make(4, 512)
        batched = make(4, 512)
        for key in small_trace.key_list():
            scalar.process(key)
        batched.process_all(small_trace.key_batch())
        assert batched.records() == scalar.records()
        assert batched.shard_loads() == scalar.shard_loads()
        for field in ("packets", "hashes", "reads", "writes"):
            assert getattr(batched.meter, field) == getattr(scalar.meter, field)
        for shard_a, shard_b in zip(scalar.shards.values(), batched.shards.values()):
            for field in ("packets", "hashes", "reads", "writes"):
                assert getattr(shard_a.meter, field) == getattr(
                    shard_b.meter, field
                )

    def test_queries_agree_after_batched_feed(self, small_trace):
        scalar = make(3, 512)
        batched = make(3, 512)
        batch = small_trace.key_batch()
        for key in small_trace.key_list():
            scalar.process(key)
        batched.process_all(batch)
        flows = small_trace.flow_batch()
        assert batched.query_batch(flows).tolist() == [
            scalar.query(k) for k in flows.keys
        ]

    def test_empty_batch_is_noop(self):
        from repro.flow.batch import KeyBatch

        sharded = make(2, 64)
        sharded.process_batch(KeyBatch([]))
        assert sharded.meter.packets == 0

    def test_sizes_forwarded_to_shards(self, tiny_trace):
        """Byte sizes survive the per-shard sub-batch slicing."""
        import numpy as np

        from repro.netwide.sharding import ShardedCollector
        from repro.specs import CollectorSpec

        spec = CollectorSpec(
            "hashflow", {"main_cells": 64, "track_bytes": True, "seed": 100}
        )
        scalar = ShardedCollector(spec, n_shards=2, seed=1)
        batched = ShardedCollector(spec, n_shards=2, seed=1)
        keys = tiny_trace.key_list()
        sizes = np.arange(100, 100 + len(keys), dtype=np.int64)
        for key, size in zip(keys, sizes.tolist()):
            scalar.shards[scalar.shard_of(key)].process(key, size)
            scalar.meter.add(packets=1, hashes=1)
        batched.process_all(tiny_trace.key_batch(sizes=sizes))
        merged_scalar = {}
        for shard in scalar.shards.values():
            merged_scalar.update(shard.byte_records())
        merged_batched = {}
        for shard in batched.shards.values():
            merged_batched.update(shard.byte_records())
        assert merged_batched == merged_scalar
        assert sum(merged_batched.values()) == int(sizes.sum())

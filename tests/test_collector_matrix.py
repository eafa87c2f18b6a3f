"""Contract matrix: every collector variant obeys the shared interface.

Parametrizes the full set of collector types — the paper's four, the
extra baselines, and the wrapper/deployment variants — over one common
behavioural contract, so adding a collector that violates the interface
fails loudly.
"""

from __future__ import annotations

import pytest

from repro.core.adaptive import AdaptiveHashFlow, EpochedHashFlow
from repro.core.hashflow import HashFlow
from repro.core.timeout import TimeoutHashFlow
from repro.netwide.sharding import ShardedCollector
from repro.sketches.cuckoo import CuckooFlowCache
from repro.sketches.elastic import ElasticSketch
from repro.sketches.exact import ExactCollector
from repro.sketches.flowradar import FlowRadar
from repro.sketches.hashpipe import HashPipe
from repro.sketches.sampled import SampledNetFlow
from repro.sketches.spacesaving import SpaceSaving

COLLECTOR_FACTORIES = {
    "hashflow": lambda: HashFlow(main_cells=256, seed=3),
    "hashflow_multihash": lambda: HashFlow(main_cells=256, variant="multihash", seed=3),
    "hashflow_bytes": lambda: HashFlow(main_cells=256, track_bytes=True, seed=3),
    "hashpipe": lambda: HashPipe(cells_per_stage=64, seed=3),
    "elastic": lambda: ElasticSketch(heavy_cells_per_stage=64, light_cells=192, seed=3),
    "flowradar": lambda: FlowRadar(counting_cells=512, seed=3),
    "spacesaving": lambda: SpaceSaving(capacity=128),
    "cuckoo": lambda: CuckooFlowCache(n_cells=512, seed=3),
    "sampled": lambda: SampledNetFlow(every_n=2),
    "exact": ExactCollector,
    "epoched": lambda: EpochedHashFlow(HashFlow(main_cells=256, seed=3), 500),
    "adaptive": lambda: AdaptiveHashFlow(main_cells=256, seed=3),
    "timeout": lambda: TimeoutHashFlow(HashFlow(main_cells=256, seed=3)),
    "sharded": lambda: ShardedCollector(HashFlow(main_cells=128, seed=10), n_shards=2),
}

STREAM = [k % 60 + 1 for k in range(600)]


@pytest.fixture(params=sorted(COLLECTOR_FACTORIES), ids=sorted(COLLECTOR_FACTORIES))
def collector(request):
    return COLLECTOR_FACTORIES[request.param]()


class TestContractMatrix:
    def test_process_then_query_consistent(self, collector):
        collector.process_all(STREAM)
        for key in set(STREAM):
            assert collector.query(key) >= 0

    def test_records_are_subset_of_seen_flows(self, collector):
        collector.process_all(STREAM)
        assert set(collector.records()).issubset(set(STREAM))

    def test_records_have_positive_counts(self, collector):
        collector.process_all(STREAM)
        assert all(v > 0 for v in collector.records().values())

    def test_unseen_flow_queries_zero(self, collector):
        collector.process_all(STREAM)
        assert collector.query(999_999) == 0

    def test_heavy_hitters_threshold_respected(self, collector):
        collector.process_all(STREAM)
        for value in collector.heavy_hitters(5).values():
            assert value > 5

    def test_cardinality_positive_after_traffic(self, collector):
        collector.process_all(STREAM)
        assert collector.estimate_cardinality() > 0

    def test_reset_then_reuse(self, collector):
        collector.process_all(STREAM)
        collector.reset()
        assert collector.records() == {}
        collector.process_all(STREAM[:50])
        assert len(collector.records()) > 0

    def test_memory_bits_positive(self, collector):
        collector.process_all(STREAM)
        assert collector.memory_bits > 0

    def test_deterministic_across_instances(self, collector, request):
        name = request.node.callspec.id if hasattr(request.node, "callspec") else None
        other = COLLECTOR_FACTORIES[
            request.node.callspec.params["collector"]
        ]()
        collector.process_all(STREAM)
        other.process_all(STREAM)
        assert collector.records() == other.records()

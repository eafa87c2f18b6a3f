"""Contract matrix: every collector variant obeys the shared interface.

Parametrizes the full set of collector types — the paper's four, the
extra baselines, and the wrapper/deployment variants — over one common
behavioural contract, so adding a collector that violates the interface
fails loudly.
"""

from __future__ import annotations

import random

import pytest

from repro.core.adaptive import AdaptiveHashFlow
from repro.core.hashflow import HashFlow
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
    "adaptive": lambda: AdaptiveHashFlow(main_cells=256, seed=3),
    "sharded": lambda: ShardedCollector(HashFlow(main_cells=128, seed=10), n_shards=2),
}

STREAM = [k % 60 + 1 for k in range(600)]


def skewed_stream(n_packets: int, n_flows: int, seed: int) -> list[int]:
    """A skewed 104-bit-key stream (few elephants, many mice)."""
    rng = random.Random(seed)
    flows = [rng.getrandbits(104) | 1 for _ in range(n_flows)]
    return [
        flows[min(int(rng.expovariate(4.0 / n_flows)), n_flows - 1)]
        for _ in range(n_packets)
    ]


#: Distinct mice fed before ``reset()``: more flows than any matrix
#: table holds.  The adaptive entry gets 20,000, since its promotion
#: margin moves at most once per 4,096-packet window and must have moved
#: before the reset.
CHURN_FLOWS = {"adaptive": 20_000}
#: More flows than most matrix tables have cells, so leftover state
#: would change which flows win the contended cells.
CONTENDED = skewed_stream(3_000, 600, seed=5)


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


def meter_tuple(meter) -> tuple[int, int, int, int]:
    return (meter.packets, meter.hashes, meter.reads, meter.writes)


@pytest.mark.parametrize("kind", sorted(COLLECTOR_FACTORIES))
def test_reset_equals_fresh_build(kind):
    """``reset()`` clears *all* state: a collector reused after a churn
    stream answers a contended stream exactly as a fresh build does.

    Rotation relies on this: every epoch resets the standing collector
    instead of building a new one.
    """
    churn = list(range(1, CHURN_FLOWS.get(kind, 1_000) + 1))
    used = COLLECTOR_FACTORIES[kind]()
    used.process_all(churn)
    used.reset()
    used.process_all(CONTENDED)
    fresh = COLLECTOR_FACTORIES[kind]()
    fresh.process_all(CONTENDED)
    assert used.records() == fresh.records()
    assert meter_tuple(used.meter) == meter_tuple(fresh.meter)
    probes = list(dict.fromkeys(CONTENDED)) + churn[:256] + [1 << 100]
    assert used.query_batch(probes).tolist() == fresh.query_batch(probes).tolist()

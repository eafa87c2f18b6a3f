"""Batched-vs-scalar equivalence for the batch-query engine.

The engine's contract is the query-side twin of the batch-update
contract (see ``tests/test_batch_engine.py``): for every collector,
``query_batch(keys)[i]`` must equal ``query(keys[i])`` exactly — for
resident flows, evicted flows and never-seen flows alike — and the
batched read path must never touch the cost meter.  The matrix below
covers every ``FlowCollector`` subclass plus the standalone count-min
sketch, the HashFlow sub-tables, and the sharded network-wide
collector.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveHashFlow
from repro.core.hashflow import HashFlow
from repro.flow.batch import KeyBatch
from repro.hashing.mixers import MASK64
from repro.netwide.sharding import ShardedCollector
from repro.sketches.base import gather_estimates
from repro.sketches.countmin import CountMinSketch
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
    "hashflow_clear": lambda: HashFlow(main_cells=128, clear_promoted=True, seed=3),
    "hashflow_shallow": lambda: HashFlow(main_cells=128, depth=1, seed=3),
    "hashpipe": lambda: HashPipe(cells_per_stage=64, seed=3),
    "hashpipe_single": lambda: HashPipe(cells_per_stage=64, stages=1, seed=3),
    "elastic": lambda: ElasticSketch(heavy_cells_per_stage=64, light_cells=192, seed=3),
    "flowradar": lambda: FlowRadar(counting_cells=512, seed=3),
    "spacesaving": lambda: SpaceSaving(capacity=128),
    "cuckoo": lambda: CuckooFlowCache(n_cells=512, seed=3),
    "sampled": lambda: SampledNetFlow(every_n=3),
    "exact": ExactCollector,
    "adaptive": lambda: AdaptiveHashFlow(main_cells=256, seed=3),
    "sharded": lambda: ShardedCollector(HashFlow(main_cells=128, seed=10), n_shards=3),
}


def make_stream(n_packets: int, n_flows: int, seed: int) -> list[int]:
    """A skewed 104-bit-key stream (few elephants, many mice)."""
    rng = random.Random(seed)
    flows = [rng.getrandbits(104) | 1 for _ in range(n_flows)]
    return [
        flows[min(int(rng.expovariate(4.0 / n_flows)), n_flows - 1)]
        for _ in range(n_packets)
    ]


def probe_keys(stream: list[int], seed: int) -> list[int]:
    """Every seen flow plus guaranteed-unseen keys."""
    rng = random.Random(seed ^ 0xBEEF)
    seen = list(dict.fromkeys(stream))
    return seen + [rng.getrandbits(104) | (1 << 100) for _ in range(64)]


def meter_tuple(meter) -> tuple[int, int, int, int]:
    return (meter.packets, meter.hashes, meter.reads, meter.writes)


@pytest.fixture(params=sorted(COLLECTOR_FACTORIES), ids=sorted(COLLECTOR_FACTORIES))
def collector(request):
    return COLLECTOR_FACTORIES[request.param]()


class TestQueryBatchMatrix:
    """Acceptance matrix: every FlowCollector subclass, bit-identical."""

    def test_matches_scalar_query_loop(self, collector):
        stream = make_stream(12_000, 600, seed=7)
        collector.process_all(stream)
        probes = probe_keys(stream, seed=7)
        batched = collector.query_batch(probes)
        assert batched.dtype == np.int64
        assert batched.tolist() == [collector.query(k) for k in probes]

    def test_accepts_prebuilt_key_batch(self, collector):
        stream = make_stream(4_000, 300, seed=2)
        collector.process_all(stream)
        probes = probe_keys(stream, seed=2)
        batch = KeyBatch(probes)
        batch.halves()  # pre-split: the engine must reuse, not rebuild
        assert collector.query_batch(batch).tolist() == [
            collector.query(k) for k in probes
        ]

    def test_empty_batch(self, collector):
        collector.process_all(make_stream(500, 50, seed=1))
        out = collector.query_batch([])
        assert out.dtype == np.int64
        assert out.tolist() == []

    def test_does_not_touch_meter(self, collector):
        """Point queries are control-plane reads: no Fig. 11 cost."""
        stream = make_stream(2_000, 200, seed=5)
        collector.process_all(stream)
        before = meter_tuple(collector.meter)
        collector.query_batch(probe_keys(stream, seed=5))
        assert meter_tuple(collector.meter) == before

    def test_cold_collector_all_zero(self, collector):
        probes = [random.Random(9).getrandbits(104) | 1 for _ in range(50)]
        assert collector.query_batch(probes).tolist() == [0] * 50


class TestHashFlowQueryBatch:
    @pytest.mark.parametrize("variant", ["pipelined", "multihash"])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_overloaded_table(self, variant, seed):
        """Heavy overload: main hits, ancillary hits and misses all mix."""
        stream = make_stream(20_000, 2_000, seed=seed)
        c = HashFlow(main_cells=256, variant=variant, seed=seed)
        c.process_all(stream)
        probes = probe_keys(stream, seed=seed)
        assert c.query_batch(probes).tolist() == [c.query(k) for k in probes]

    def test_first_match_after_eviction_duplicates(self):
        """Control-plane evictions can re-open earlier probe buckets; if
        a flow is ever resident twice, the batched query must still
        return the *first* probe stage's count, like the scalar loop."""
        # White box (plants records in the list tier's planes): pin numpy.
        c = HashFlow(main_cells=64, variant="multihash", depth=3, seed=1, kernel="numpy")
        main = c.main
        key = 0xABCDEF123456789 | (1 << 100)
        buckets = [h.bucket(key, main.n_cells) for h in main._hashes]
        # Plant the same flow at two of its probe positions with
        # different counts (the duplicate-record corner).
        main.k_lo[buckets[0]], main.k_hi[buckets[0]] = key & MASK64, key >> 64
        main.counts[buckets[0]] = 5
        if buckets[1] != buckets[0]:
            main.k_lo[buckets[1]], main.k_hi[buckets[1]] = key & MASK64, key >> 64
            main.counts[buckets[1]] = 9
        assert c.query(key) == 5
        assert c.query_batch([key]).tolist() == [5]

    def test_ancillary_only_flows(self):
        """Flows living only in the ancillary table answer through the
        vectorized digest-match path."""
        stream = make_stream(30_000, 3_000, seed=4)
        c = HashFlow(main_cells=64, ancillary_cells=512, seed=4)
        c.process_all(stream)
        resident = set(c.records())
        anc_only = [k for k in dict.fromkeys(stream) if k not in resident]
        assert anc_only, "workload too small to exercise the ancillary table"
        assert c.query_batch(anc_only).tolist() == [c.query(k) for k in anc_only]


class TestStandaloneSketchQueryBatch:
    @pytest.mark.parametrize("conservative", [False, True])
    def test_countmin(self, conservative):
        stream = make_stream(8_000, 400, seed=6)
        cms = CountMinSketch(
            width=256, depth=3, counter_bits=8, seed=6, conservative=conservative
        )
        cms.add_batch(stream)
        probes = probe_keys(stream, seed=6)
        assert cms.query_batch(probes).tolist() == [cms.query(k) for k in probes]
        assert cms.query_batch([]).tolist() == []


class TestGatherEstimates:
    def test_gather_and_scale(self):
        table = {1: 4, 7: 2}
        out = gather_estimates(table, [1, 2, 7], scale=10)
        assert out.tolist() == [40, 0, 20]
        assert out.dtype == np.int64

    def test_key_batch_input(self):
        assert gather_estimates({5: 3}, KeyBatch([5, 6])).tolist() == [3, 0]

    def test_empty(self):
        assert gather_estimates({}, []).tolist() == []


class TestWorkloadTruthCache:
    def test_truth_vectors_align_with_true_sizes(self):
        from repro.experiments.runner import make_workload
        from repro.traces.profiles import CAMPUS

        workload = make_workload(CAMPUS, 500, seed=3)
        assert workload.truth_batch.keys == list(workload.true_sizes.keys())
        assert workload.truth_counts.tolist() == list(workload.true_sizes.values())
        # Halves are pre-split (shared with the stream batch), not lazy.
        assert workload.truth_batch._lo is not None

    def test_size_are_matches_scalar_metric(self):
        from repro.analysis.metrics import average_relative_error
        from repro.experiments.runner import make_workload
        from repro.traces.profiles import CAMPUS

        workload = make_workload(CAMPUS, 400, seed=5)
        collector = HashFlow(main_cells=128, seed=5)
        workload.feed(collector)
        batched = workload.size_are(collector)
        scalar = average_relative_error(collector.query, workload.true_sizes)
        assert batched == pytest.approx(scalar, rel=1e-12)

    def test_query_estimates_in_truth_order(self):
        from repro.experiments.runner import make_workload
        from repro.traces.profiles import CAMPUS

        workload = make_workload(CAMPUS, 300, seed=1)
        collector = ExactCollector()
        workload.feed(collector)
        assert (
            workload.query_estimates(collector).tolist()
            == workload.truth_counts.tolist()
        )

"""Contract matrix: every collector variant obeys the shared interface.

Parametrizes the full set of collector types — the paper's four, the
extra baselines, and the wrapper/deployment variants — over one common
behavioural contract, so adding a collector that violates the interface
fails loudly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveHashFlow
from repro.core.hashflow import HashFlow
from repro.flow.batch import KeyBatch
from repro.hashing.mixers import keys_from_halves
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


#: Keys at the top of the 104-bit flow-ID range, each sent 3 times,
#: interleaved: 40 flows, far fewer than any matrix table holds.
WIDEST_FLOWS = [(1 << 104) - 1 - k for k in range(40)]
LIGHT_LOAD = WIDEST_FLOWS * 3
#: A flagged ElasticSketch heavy-part flow adds its light-part count to
#: the point query, so the query may exceed the reported record.
QUERY_ABOVE_RECORD = {"elastic"}
#: Flow caches without a fixed table: their memory grows with the flows
#: they hold.
UNBOUNDED_MEMORY = {"exact", "sampled"}
#: A cheaper stream than ``CONTENDED`` that still holds more flows than
#: the HashFlow, HashPipe, ElasticSketch and SpaceSaving tables keep.
#: ``CONTENDED`` also overflows the cuckoo cache and FlowRadar's decode,
#: and each feed of it costs the cuckoo kick loop about a second.
BUSY = skewed_stream(1_500, 400, seed=11)


def probes_for(stream: list[int]) -> list[int]:
    """Every flow of ``stream`` plus keys it never carries."""
    return list(dict.fromkeys(stream)) + [1 << 100, (1 << 104) - 1, 12_345]


def state(collector, probes: list[int]) -> tuple:
    """Everything a caller can observe: records, meters, point answers."""
    return (
        collector.records(),
        meter_tuple(collector.meter),
        collector.query_batch(probes).tolist(),
    )


@pytest.mark.parametrize("kind", sorted(COLLECTOR_FACTORIES))
class TestUpdateContract:
    """The update path: batched, chunked and scalar feeds agree."""

    def test_process_all_counts_every_packet(self, kind):
        collector = COLLECTOR_FACTORIES[kind]()
        assert collector.process_all(BUSY) == len(BUSY)
        assert collector.meter.packets == len(BUSY)

    def test_batched_update_equals_scalar_process(self, kind):
        """``process_batch`` overrides are bit-identical to ``process``:
        same records, same query answers, same meter totals."""
        scalar = COLLECTOR_FACTORIES[kind]()
        for key in CONTENDED:
            scalar.process(key)
        batched = COLLECTOR_FACTORIES[kind]()
        batched.process_all(CONTENDED)
        probes = probes_for(CONTENDED)
        assert state(batched, probes) == state(scalar, probes)

    def test_chunk_boundaries_do_not_change_state(self, kind):
        """A batch walk carries no state across chunk boundaries that
        the scalar walk would not."""
        probes = probes_for(BUSY)
        states = []
        for chunk_size in (1, 97, len(BUSY)):
            collector = COLLECTOR_FACTORIES[kind]()
            collector.process_all(BUSY, chunk_size=chunk_size)
            states.append(state(collector, probes))
        assert states[0] == states[1] == states[2]

    def test_empty_stream_reports_nothing(self, kind):
        collector = COLLECTOR_FACTORIES[kind]()
        assert collector.process_all([]) == 0
        assert collector.records() == {}
        assert collector.heavy_hitters(0) == {}
        assert collector.estimate_cardinality() == 0
        assert meter_tuple(collector.meter) == (0, 0, 0, 0)

    def test_lone_flow_counted_exactly(self, kind):
        key = (1 << 103) | 77
        collector = COLLECTOR_FACTORIES[kind]()
        collector.process_all([key] * 500)
        assert collector.records() == {key: 500}
        assert collector.query(key) == 500
        assert collector.heavy_hitters(499) == {key: 500}

    def test_light_load_reports_every_flow_exactly(self, kind):
        """With room to spare, every full-record collector reports each
        flow with its true count, up to the widest 104-bit key.  Packet
        sampling reports the sampled flows, scaled by its period."""
        collector = COLLECTOR_FACTORIES[kind]()
        collector.process_all(LIGHT_LOAD)
        records = collector.records()
        if kind == "sampled":
            assert records and set(records) <= set(WIDEST_FLOWS)
            assert all(v % collector.every_n == 0 for v in records.values())
        else:
            assert records == {key: 3 for key in WIDEST_FLOWS}


@pytest.mark.parametrize("kind", sorted(COLLECTOR_FACTORIES))
class TestReportContract:
    """The report path: records, queries, memory and clones."""

    def test_records_agree_with_point_queries(self, kind):
        collector = COLLECTOR_FACTORIES[kind]()
        collector.process_all(CONTENDED)
        records = collector.records()
        answers = collector.query_batch(list(records)).tolist()
        for (key, count), answer in zip(records.items(), answers):
            if kind in QUERY_ABOVE_RECORD:
                assert answer >= count
            else:
                assert answer == count

    def test_queries_leave_state_unchanged(self, kind):
        """Point queries are control-plane reads: no record, meter or
        later answer moves."""
        collector = COLLECTOR_FACTORIES[kind]()
        collector.process_all(BUSY)
        probes = probes_for(BUSY)
        before = state(collector, probes)
        for key in probes:
            collector.query(key)
        collector.heavy_hitters(1)
        collector.estimate_cardinality()
        assert state(collector, probes) == before

    def test_memory_is_fixed_by_configuration(self, kind):
        """A table's footprint is set when it is built; only the
        unbounded flow caches grow, and ``reset()`` shrinks them back."""
        collector = COLLECTOR_FACTORIES[kind]()
        fresh = collector.memory_bits
        collector.process_all(BUSY)
        if kind in UNBOUNDED_MEMORY:
            assert collector.memory_bits > fresh
        else:
            assert collector.memory_bits == fresh
        collector.reset()
        assert collector.memory_bits == fresh

    def test_clone_of_used_collector_starts_empty(self, kind):
        """``clone()`` copies the configuration, never the tables."""
        used = COLLECTOR_FACTORIES[kind]()
        used.process_all(BUSY)
        before = used.records()
        clone = used.clone()
        assert clone.records() == {}
        assert meter_tuple(clone.meter) == (0, 0, 0, 0)
        assert used.records() == before
        fresh = COLLECTOR_FACTORIES[kind]()
        clone.process_all(LIGHT_LOAD)
        fresh.process_all(LIGHT_LOAD)
        probes = probes_for(LIGHT_LOAD)
        assert state(clone, probes) == state(fresh, probes)


def cell_records(k_lo, k_hi, counts) -> dict[int, int]:
    """Per-flow sums over a table's occupied cells, in flat cell order:
    the record dict the planes spell out, read cell by cell."""
    records: dict[int, int] = {}
    for lo, hi, count in zip(k_lo, k_hi, counts):
        if count:
            key = (int(hi) << 64) | int(lo)
            records[key] = records.get(key, 0) + int(count)
    return records


@pytest.fixture(params=["numpy", "native"])
def tier(request, monkeypatch):
    """Build the matrix's table-backed collectors on one kernel tier."""
    from repro.native import native_available

    if request.param == "native" and not native_available():
        pytest.skip("native kernel tier unavailable (no C compiler)")
    monkeypatch.setenv("REPRO_KERNEL", request.param)
    return request.param


#: The matrix plus a byte-tracking 2-shard collector.
GATHERED = {
    **COLLECTOR_FACTORIES,
    "sharded_bytes": lambda: ShardedCollector(
        HashFlow(main_cells=128, track_bytes=True, seed=10), n_shards=2
    ),
}


class TestColumnGather:
    """``record_columns`` — what rotation exports — is ``records()`` /
    ``byte_records()`` as columns, on both tiers."""

    @pytest.mark.parametrize("kind", sorted(GATHERED))
    def test_gather_equals_record_dicts(self, kind, tier):
        collector = GATHERED[kind]()
        sizes = [40 + key % 1400 for key in CONTENDED]
        collector.process_all(KeyBatch(CONTENDED, sizes=sizes))
        lo, hi, packets, octets = collector.record_columns()
        keys = keys_from_halves(lo, hi)
        assert list(zip(keys, packets.tolist())) == list(collector.records().items())
        if getattr(collector, "track_bytes", False):
            assert dict(zip(keys, octets.tolist())) == collector.byte_records()
            assert octets.sum() > 0
        else:
            assert octets is None

    def test_hashflow_gathers_its_cells_in_flat_order(self, tier):
        hf = HashFlow(main_cells=256, track_bytes=True, seed=3)
        hf.process_all(CONTENDED)
        main = hf.main
        lo, hi, packets, _ = hf.record_columns()
        expected = cell_records(main.k_lo, main.k_hi, main.counts)
        assert len(expected) == len(lo)  # probes never split a flow
        keys = [(int(h) << 64) | int(l) for l, h in zip(lo, hi)]
        assert list(zip(keys, packets.tolist())) == list(expected.items())

    def test_hashpipe_split_cells_sum_at_first_cell(self, tier):
        hp = HashPipe(cells_per_stage=64, seed=3)
        hp.process_all(CONTENDED)
        lo, hi, packets, _ = hp.record_columns()
        assert hp.occupancy() > len(lo), "want a flow split across stages"
        expected = cell_records(hp.k_lo, hp.k_hi, hp.counts)
        keys = [(int(h) << 64) | int(l) for l, h in zip(lo, hi)]
        assert list(zip(keys, packets.tolist())) == list(expected.items())
        assert int(packets.sum()) == int(np.asarray(hp.counts).sum())

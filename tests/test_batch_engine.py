"""Batched-vs-scalar equivalence for the batch-update engine.

The engine's contract is *bit-identity*: feeding a stream through
``process_batch`` / ``process_all`` / ``add_batch`` must leave a
collector in exactly the state the per-packet scalar path produces —
same records, same query answers, same promotions, same CostMeter
totals.  These tests enforce that across HashFlow variants, HashPipe
and CountMinSketch for several seeds and batch sizes, including empty
and size-1 batches.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.hashflow import HashFlow
from repro.flow.batch import DEFAULT_CHUNK_SIZE, KeyBatch, iter_key_chunks
from repro.sketches.base import CostMeter, FlowCollector
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashpipe import HashPipe


def make_stream(n_packets: int, n_flows: int, seed: int) -> list[int]:
    """A skewed 104-bit-key stream (few elephants, many mice)."""
    rng = random.Random(seed)
    flows = [rng.getrandbits(104) | 1 for _ in range(n_flows)]
    return [
        flows[min(int(rng.expovariate(4.0 / n_flows)), n_flows - 1)]
        for _ in range(n_packets)
    ]


def meter_tuple(meter: CostMeter) -> tuple[int, int, int, int]:
    return (meter.packets, meter.hashes, meter.reads, meter.writes)


def assert_equivalent(scalar, batched, probes) -> None:
    """Records, point queries and meter totals must be bit-identical."""
    assert scalar.records() == batched.records()
    assert [scalar.query(k) for k in probes] == [batched.query(k) for k in probes]
    assert meter_tuple(scalar.meter) == meter_tuple(batched.meter)


class TestKeyBatch:
    def test_halves_roundtrip(self):
        keys = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1, 123456789]
        batch = KeyBatch(keys)
        lo, hi = batch.halves()
        assert lo.dtype == np.uint64 and hi.dtype == np.uint64
        rebuilt = [(int(h) << 64) | int(l) for l, h in zip(lo, hi)]
        assert rebuilt == keys

    def test_precomputed_halves_validated(self):
        with pytest.raises(ValueError):
            KeyBatch([1, 2], lo=np.zeros(2, np.uint64), hi=None)
        with pytest.raises(ValueError):
            KeyBatch([1, 2], lo=np.zeros(3, np.uint64), hi=np.zeros(3, np.uint64))

    def test_chunks_cover_stream_and_slice_halves(self):
        keys = list(range(100))
        batch = KeyBatch(keys)
        batch.halves()  # materialize, so chunks must slice
        chunks = list(batch.chunks(33))
        assert [k for c in chunks for k in c.keys] == keys
        assert all(c._lo is not None for c in chunks)
        assert [int(v) for c in chunks for v in c.lo] == keys

    def test_coerce(self):
        assert KeyBatch.coerce([1, 2]).keys == [1, 2]
        b = KeyBatch([3])
        assert KeyBatch.coerce(b) is b
        arr = np.array([5, 6], dtype=np.int64)
        coerced = KeyBatch.coerce(arr)
        assert coerced.keys == [5, 6]
        assert all(type(k) is int for k in coerced.keys)

    def test_iter_key_chunks_sources(self):
        keys = list(range(25))
        for source in (keys, tuple(keys), np.array(keys), iter(keys), KeyBatch(keys)):
            chunks = list(iter_key_chunks(source, 7))
            assert [k for c in chunks for k in c] == keys
            assert max(len(c) for c in chunks) <= 7

    def test_iter_key_chunks_empty(self):
        assert list(iter_key_chunks([], 8)) == []
        assert list(iter_key_chunks(np.array([], dtype=np.int64), 8)) == []

    def test_iter_key_chunks_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_key_chunks([1], 0))


class TestCostMeterAdd:
    def test_add_accumulates(self):
        m = CostMeter()
        m.add(packets=3, hashes=9, reads=6, writes=2)
        m.add(writes=1)
        assert meter_tuple(m) == (3, 9, 6, 3)


class _FallbackCollector(FlowCollector):
    """Exercises the generic process_batch fallback and chunking."""

    name = "fallback"

    def __init__(self):
        super().__init__()
        self.seen: list[int] = []

    def process(self, key):
        self.meter.packets += 1
        self.seen.append(key)

    def records(self):
        out: dict[int, int] = {}
        for k in self.seen:
            out[k] = out.get(k, 0) + 1
        return out

    def query(self, key):
        return self.records().get(key, 0)

    def reset(self):
        self.seen.clear()
        self.meter.reset()

    @property
    def memory_bits(self):
        return 0


class TestProcessAllChunking:
    def test_preserves_order_across_chunks(self):
        c = _FallbackCollector()
        keys = list(range(10_000))
        assert c.process_all(keys, chunk_size=64) == 10_000
        assert c.seen == keys

    def test_ndarray_input_matches_list_input(self):
        """Regression: iterating a np.ndarray yields np.int64 scalars;
        the engine must convert to Python ints once per chunk."""
        keys = make_stream(3000, 100, seed=5)
        small = [k & 0x7FFFFFFFFFFFFFFF for k in keys]  # fit int64
        a = HashFlow(main_cells=128, seed=1)
        b = HashFlow(main_cells=128, seed=1)
        a.process_all(small)
        b.process_all(np.array(small, dtype=np.int64))
        assert_equivalent(a, b, small[:100])
        assert a.promotions == b.promotions

    def test_ndarray_keys_become_python_ints(self):
        c = _FallbackCollector()
        c.process_all(np.arange(10, dtype=np.int64))
        assert all(type(k) is int for k in c.seen)

    def test_generator_input(self):
        c = _FallbackCollector()
        assert c.process_all(k for k in range(100)) == 100
        assert c.seen == list(range(100))


class TestHashFlowEquivalence:
    @pytest.mark.parametrize("variant", ["pipelined", "multihash"])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_records_queries_meter_promotions(self, variant, seed):
        stream = make_stream(12_000, 600, seed=seed)
        scalar = HashFlow(main_cells=256, depth=3, variant=variant, seed=seed)
        batched = HashFlow(main_cells=256, depth=3, variant=variant, seed=seed)
        for key in stream:
            scalar.process(key)
        batched.process_all(stream, chunk_size=512)
        probes = stream[:200] + [random.Random(seed ^ 1).getrandbits(104)]
        assert_equivalent(scalar, batched, probes)
        assert scalar.promotions == batched.promotions

    @pytest.mark.parametrize("variant", ["pipelined", "multihash"])
    @pytest.mark.parametrize("clear_promoted", [False, True])
    @pytest.mark.parametrize("promote", [True, False])
    def test_ablation_flags(self, variant, clear_promoted, promote):
        stream = make_stream(8_000, 400, seed=3)
        kwargs = dict(
            main_cells=128,
            depth=3,
            variant=variant,
            clear_promoted=clear_promoted,
            promote=promote,
            seed=3,
        )
        scalar = HashFlow(**kwargs)
        batched = HashFlow(**kwargs)
        for key in stream:
            scalar.process(key)
        batched.process_all(stream)
        assert_equivalent(scalar, batched, stream[:100])
        assert scalar.promotions == batched.promotions
        # Ancillary state must match too (digest-level equality).
        assert np.array_equal(scalar.ancillary.digests, batched.ancillary.digests)
        assert np.array_equal(scalar.ancillary.counts, batched.ancillary.counts)

    @pytest.mark.parametrize("batch_size", [1, 2, 97, DEFAULT_CHUNK_SIZE])
    def test_batch_size_invariance(self, batch_size):
        stream = make_stream(5_000, 300, seed=11)
        reference = HashFlow(main_cells=128, seed=11)
        reference.process_all(stream, chunk_size=len(stream))
        chunked = HashFlow(main_cells=128, seed=11)
        chunked.process_all(stream, chunk_size=batch_size)
        assert_equivalent(reference, chunked, stream[:100])

    def test_empty_and_single_batch(self):
        c = HashFlow(main_cells=64, seed=0)
        c.process_batch([])
        assert meter_tuple(c.meter) == (0, 0, 0, 0)
        c.process_batch([42])
        assert c.meter.packets == 1
        assert c.query(42) == 1

    def test_track_bytes_falls_back_to_scalar(self):
        stream = make_stream(2_000, 100, seed=2)
        scalar = HashFlow(main_cells=64, track_bytes=True, seed=2)
        batched = HashFlow(main_cells=64, track_bytes=True, seed=2)
        for key in stream:
            scalar.process(key)
        batched.process_all(stream)
        assert_equivalent(scalar, batched, stream[:50])
        assert scalar.byte_records() == batched.byte_records()

    def test_promotions_happen_in_both_paths(self):
        """The equivalence tests are vacuous if promotion never fires."""
        stream = make_stream(12_000, 600, seed=0)
        batched = HashFlow(main_cells=256, seed=0)
        batched.process_all(stream)
        assert batched.promotions > 0


class TestHashPipeEquivalence:
    @pytest.mark.parametrize("seed", [0, 5, 99])
    @pytest.mark.parametrize("batch_size", [1, 113, DEFAULT_CHUNK_SIZE])
    def test_records_queries_meter(self, seed, batch_size):
        stream = make_stream(10_000, 500, seed=seed)
        scalar = HashPipe(cells_per_stage=128, seed=seed)
        batched = HashPipe(cells_per_stage=128, seed=seed)
        for key in stream:
            scalar.process(key)
        batched.process_all(stream, chunk_size=batch_size)
        assert_equivalent(scalar, batched, stream[:200])
        assert np.array_equal(scalar.k_lo, batched.k_lo)
        assert np.array_equal(scalar.k_hi, batched.k_hi)
        assert np.array_equal(scalar.counts, batched.counts)

    def test_empty_batch(self):
        c = HashPipe(cells_per_stage=16)
        c.process_batch([])
        assert meter_tuple(c.meter) == (0, 0, 0, 0)

    def test_single_stage(self):
        stream = make_stream(3_000, 200, seed=4)
        scalar = HashPipe(cells_per_stage=64, stages=1, seed=4)
        batched = HashPipe(cells_per_stage=64, stages=1, seed=4)
        for key in stream:
            scalar.process(key)
        batched.process_all(stream)
        assert_equivalent(scalar, batched, stream[:100])


class TestCountMinEquivalence:
    @pytest.mark.parametrize("conservative", [False, True])
    @pytest.mark.parametrize("seed", [0, 21])
    def test_rows_and_meter(self, conservative, seed):
        stream = make_stream(8_000, 400, seed=seed)
        scalar = CountMinSketch(
            width=256, depth=3, counter_bits=8, seed=seed, conservative=conservative
        )
        batched = CountMinSketch(
            width=256, depth=3, counter_bits=8, seed=seed, conservative=conservative
        )
        for key in stream:
            scalar.add(key)
        batched.add_batch(stream)
        assert np.array_equal(scalar.rows, batched.rows)
        assert meter_tuple(scalar.meter) == meter_tuple(batched.meter)
        assert [scalar.query(k) for k in stream[:100]] == [
            batched.query(k) for k in stream[:100]
        ]

    @pytest.mark.parametrize("conservative", [False, True])
    def test_saturation_with_amount(self, conservative):
        """Narrow counters saturate identically under batched adds."""
        stream = make_stream(4_000, 20, seed=8)  # heavy repeats -> saturation
        scalar = CountMinSketch(
            width=32, depth=2, counter_bits=4, seed=8, conservative=conservative
        )
        batched = CountMinSketch(
            width=32, depth=2, counter_bits=4, seed=8, conservative=conservative
        )
        for key in stream:
            scalar.add(key, 3)
        batched.add_batch(stream, 3)
        assert np.array_equal(scalar.rows, batched.rows)
        assert meter_tuple(scalar.meter) == meter_tuple(batched.meter)

    def test_empty_and_validation(self):
        c = CountMinSketch(width=16)
        c.add_batch([])
        assert meter_tuple(c.meter) == (0, 0, 0, 0)
        with pytest.raises(ValueError):
            c.add_batch([1], -1)

    def test_amount_zero(self):
        scalar = CountMinSketch(width=16, seed=1)
        batched = CountMinSketch(width=16, seed=1)
        for key in [1, 2, 3]:
            scalar.add(key, 0)
        batched.add_batch([1, 2, 3], 0)
        assert np.array_equal(scalar.rows, batched.rows)
        assert meter_tuple(scalar.meter) == meter_tuple(batched.meter)

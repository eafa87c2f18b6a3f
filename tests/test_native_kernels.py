"""Native C kernel tier: bit-identity against the numpy oracle.

The contract (DESIGN.md §8): a collector built with ``kernel="native"``
is indistinguishable from one built with ``kernel="numpy"`` — same
table states, same estimates, same cost-meter readings, same NetFlow
export bytes.  The numpy tier is the oracle; these tests enforce the
contract across the collector matrix, plus the build/fallback machinery
(a machine with no C compiler must degrade to numpy with one warning).
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.core.adaptive import AdaptiveHashFlow
from repro.core.hashflow import HashFlow
from repro.export.netflow_v5 import NetFlowV5Exporter
from repro.flow.batch import KeyBatch
from repro.hashing import mixers
from repro.hashing.families import HashFamily
from repro.native import (
    NativeBuildError,
    find_compiler,
    kernel_info,
    load_kernels,
    native_available,
    requested_kernel,
    resolve_kernel,
)
from repro.sketches.countmin import CountMinSketch
from repro.sketches.elastic import ElasticSketch
from repro.sketches.hashpipe import HashPipe
from repro.specs import build
from repro.stream.records import RecordBatch

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="native kernel tier unavailable (no C compiler)",
)

KEY_BITS = 104
MAX_KEY = (1 << KEY_BITS) - 1


def make_stream(n_packets: int, n_flows: int, seed: int = 0) -> list[int]:
    """A zipf-skewed packet stream over random 104-bit flow keys."""
    rng = random.Random(seed)
    flows = [rng.getrandbits(KEY_BITS) for _ in range(n_flows)]
    idx = np.random.default_rng(seed).zipf(1.2, size=n_packets) % n_flows
    return [flows[i] for i in idx.tolist()]


def probe_keys(stream: list[int], n_absent: int = 300, seed: int = 1) -> list[int]:
    """Resident keys plus keys that were never inserted."""
    rng = random.Random(seed)
    present = list(dict.fromkeys(stream))[:700]
    absent = [rng.getrandbits(KEY_BITS) for _ in range(n_absent)]
    return present + absent


def meter_tuple(collector):
    m = collector.meter
    return (m.packets, m.hashes, m.reads, m.writes)


# ----------------------------------------------------------------------
# Primitive kernels vs the numpy mixers
# ----------------------------------------------------------------------
@needs_native
class TestPrimitiveIdentity:
    @pytest.fixture(scope="class")
    def kernels(self):
        return load_kernels()

    @pytest.fixture(scope="class")
    def words(self):
        rng = np.random.default_rng(42)
        x = rng.integers(0, 1 << 64, size=4096, dtype=np.uint64)
        # Edge values: zero, all-ones, small counters.
        x[:4] = [0, mixers.MASK64, 1, 2]
        return x

    def test_splitmix64(self, kernels, words):
        assert np.array_equal(
            kernels.splitmix64_batch(words), mixers.splitmix64_batch(words)
        )

    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, mixers.MASK64])
    def test_mix128(self, kernels, words, seed):
        lo, hi = words, words[::-1].copy()
        assert np.array_equal(
            kernels.mix128_batch(lo, hi, seed),
            mixers.mix128_batch(lo, hi, seed),
        )

    def test_mix128_zero_high_fold(self, kernels, words):
        """``hi == 0`` skips the second mixing round in both tiers."""
        hi = np.zeros(len(words), dtype=np.uint64)
        assert np.array_equal(
            kernels.mix128_batch(words, hi, 7),
            mixers.mix128_batch(words, hi, 7),
        )

    def test_scalar_agreement(self, kernels):
        """The C batch kernels agree with the scalar Python mixers."""
        values = [0, 1, mixers.MASK64, 0x0123456789ABCDEF]
        arr = np.array(values, dtype=np.uint64)
        got = kernels.splitmix64_batch(arr)
        for v, g in zip(values, got.tolist()):
            assert mixers.splitmix64(v) == g

    def test_bucket_matrix(self, kernels):
        stream = make_stream(2048, 512, seed=3)
        batch = KeyBatch.coerce(stream)
        lo, hi = batch.halves()
        family = HashFamily(4, master_seed=9)
        sizes = [97, 128, 513, 1024]
        seeds = np.array([h.seed for h in family], dtype=np.uint64)
        got = kernels.bucket_matrix(lo, hi, seeds, np.array(sizes, dtype=np.uint64))
        for row, h, size in zip(got, family, sizes):
            assert np.array_equal(row, h.buckets_batch(batch, size).astype(np.uint64))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, mixers.MASK64), min_size=1, max_size=64))
    def test_splitmix64_hypothesis(self, values):
        kernels = load_kernels()
        arr = np.array(values, dtype=np.uint64)
        expected = np.array(
            [mixers.splitmix64(v) for v in values], dtype=np.uint64
        )
        assert np.array_equal(kernels.splitmix64_batch(arr), expected)


# ----------------------------------------------------------------------
# Collector matrix bit-identity
# ----------------------------------------------------------------------
def paired(cls, *args, **kwargs):
    """Build the same collector in both tiers."""
    return (
        cls(*args, kernel="numpy", **kwargs),
        cls(*args, kernel="native", **kwargs),
    )


@needs_native
class TestHashFlowIdentity:
    @pytest.mark.parametrize("variant", ["pipelined", "multihash"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_batched_updates(self, variant, seed):
        stream = make_stream(8000, 1500, seed=seed)
        a, b = paired(HashFlow, main_cells=256, variant=variant, seed=seed)
        for start in range(0, len(stream), 3000):
            chunk = stream[start : start + 3000]
            a.process_batch(chunk)
            b.process_batch(chunk)
        assert a.records() == b.records()
        assert a.promotions == b.promotions
        assert meter_tuple(a) == meter_tuple(b)
        probes = probe_keys(stream, seed=seed)
        assert np.array_equal(a.query_batch(probes), b.query_batch(probes))
        for key in probes[:40]:
            assert a.query(key) == b.query(key)
        assert a.main.occupancy() == b.main.occupancy()
        assert a.ancillary.occupancy() == b.ancillary.occupancy()
        assert a.estimate_cardinality() == b.estimate_cardinality()

    @pytest.mark.parametrize(
        "promote,clear_promoted", [(True, False), (True, True), (False, False)]
    )
    def test_promotion_modes(self, promote, clear_promoted):
        stream = make_stream(10_000, 2_000, seed=11)
        a, b = paired(
            HashFlow,
            main_cells=128,
            promote=promote,
            clear_promoted=clear_promoted,
            seed=11,
        )
        a.process_batch(stream)
        b.process_batch(stream)
        assert a.records() == b.records()
        assert a.promotions == b.promotions
        assert meter_tuple(a) == meter_tuple(b)
        probes = probe_keys(stream)
        assert np.array_equal(a.query_batch(probes), b.query_batch(probes))

    def test_byte_tracking(self):
        stream = make_stream(6000, 1200, seed=5)
        sizes = np.random.default_rng(5).integers(40, 1500, len(stream)).astype(
            np.int64
        )
        batch = KeyBatch(stream, sizes=sizes)
        a, b = paired(HashFlow, main_cells=256, track_bytes=True, seed=5)
        a.process_batch(batch)
        b.process_batch(batch)
        assert a.records() == b.records()
        assert a.byte_records() == b.byte_records()
        assert meter_tuple(a) == meter_tuple(b)

    def test_byte_tracking_without_sizes(self):
        """A size-less batch into a byte-tracking collector counts zero
        bytes in both tiers."""
        stream = make_stream(2000, 500, seed=6)
        a, b = paired(HashFlow, main_cells=128, track_bytes=True, seed=6)
        a.process_batch(stream)
        b.process_batch(stream)
        assert a.records() == b.records()
        assert a.byte_records() == b.byte_records()
        assert meter_tuple(a) == meter_tuple(b)

    def test_scalar_path(self):
        """Per-packet ``process`` (a batch of one through the kernel)."""
        stream = make_stream(2500, 600, seed=9)
        a, b = paired(HashFlow, main_cells=128, seed=9)
        for key in stream:
            a.process(key)
            b.process(key)
        assert a.records() == b.records()
        assert meter_tuple(a) == meter_tuple(b)
        for key in stream[:50]:
            assert a.query(key) == b.query(key)

    def test_reset(self):
        a, b = paired(HashFlow, main_cells=64, seed=2)
        stream = make_stream(1000, 300, seed=2)
        a.process_batch(stream)
        b.process_batch(stream)
        a.reset()
        b.reset()
        assert a.records() == b.records() == {}
        assert b.main.occupancy() == 0
        a.process_batch(stream)
        b.process_batch(stream)
        assert a.records() == b.records()

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(0, MAX_KEY), min_size=1, max_size=200),
        st.integers(0, 3),
    )
    def test_hypothesis_batches(self, keys, seed):
        if not native_available():  # pragma: no cover - skipif guard
            pytest.skip("native kernel tier unavailable")
        a, b = paired(HashFlow, main_cells=32, ancillary_cells=16, seed=seed)
        a.process_batch(keys)
        b.process_batch(keys)
        assert a.records() == b.records()
        assert a.promotions == b.promotions
        assert meter_tuple(a) == meter_tuple(b)
        assert np.array_equal(a.query_batch(keys), b.query_batch(keys))


@needs_native
class TestHashPipeIdentity:
    @pytest.mark.parametrize("stages", [1, 4])
    def test_batched_updates(self, stages):
        stream = make_stream(8000, 1500, seed=4)
        a, b = paired(HashPipe, 256, stages=stages, seed=4)
        for start in range(0, len(stream), 3000):
            chunk = stream[start : start + 3000]
            a.process_batch(chunk)
            b.process_batch(chunk)
        assert a.records() == b.records()
        assert meter_tuple(a) == meter_tuple(b)
        probes = probe_keys(stream)
        assert np.array_equal(a.query_batch(probes), b.query_batch(probes))
        for key in probes[:40]:
            assert a.query(key) == b.query(key)
        assert a.occupancy() == b.occupancy()
        assert a.estimate_cardinality() == b.estimate_cardinality()

    def test_scalar_path(self):
        stream = make_stream(2500, 600, seed=8)
        a, b = paired(HashPipe, 128, seed=8)
        for key in stream:
            a.process(key)
            b.process(key)
        assert a.records() == b.records()
        assert meter_tuple(a) == meter_tuple(b)

    def test_reset(self):
        a, b = paired(HashPipe, 64, seed=3)
        stream = make_stream(1000, 200, seed=3)
        a.process_batch(stream)
        b.process_batch(stream)
        a.reset()
        b.reset()
        assert a.records() == b.records() == {}
        assert b.occupancy() == 0


@needs_native
class TestCountMinIdentity:
    @pytest.mark.parametrize("conservative", [False, True])
    @pytest.mark.parametrize("counter_bits", [6, 32])
    def test_batched_updates(self, conservative, counter_bits):
        stream = make_stream(8000, 1200, seed=13)
        a, b = paired(
            CountMinSketch,
            256,
            depth=3,
            counter_bits=counter_bits,
            conservative=conservative,
            seed=13,
        )
        for start in range(0, len(stream), 3000):
            chunk = stream[start : start + 3000]
            a.add_batch(chunk)
            b.add_batch(chunk)
        for key in stream[:200]:
            a.add(key, 3)
            b.add(key, 3)
        probes = probe_keys(stream)
        assert np.array_equal(a.query_batch(probes), b.query_batch(probes))
        for key in probes[:40]:
            assert a.query(key) == b.query(key)
        assert a.zero_fraction() == b.zero_fraction()
        ma, mb = a.meter, b.meter
        assert (ma.hashes, ma.reads, ma.writes) == (mb.hashes, mb.reads, mb.writes)
        assert np.array_equal(a.rows, b.rows)

    def test_reset(self):
        a, b = paired(CountMinSketch, 128, depth=2, seed=1)
        a.add_batch(make_stream(500, 100, seed=1))
        b.add_batch(make_stream(500, 100, seed=1))
        a.reset()
        b.reset()
        assert a.zero_fraction() == b.zero_fraction() == 1.0


@needs_native
class TestCompositeCollectors:
    def test_elastic_sketch_env_resolved(self, monkeypatch):
        """ElasticSketch embeds a CountMinSketch; the env-resolved native
        tier must leave every observable identical."""
        stream = make_stream(8000, 1500, seed=21)

        def run(kernel):
            monkeypatch.setenv(native.KERNEL_ENV, kernel)
            es = ElasticSketch(heavy_cells_per_stage=256, light_cells=2048, seed=21)
            es.process_batch(stream)
            m = es.meter
            return (
                es.records(),
                es.query_batch(stream[:500]).tolist(),
                (m.packets, m.hashes, m.reads, m.writes),
                es.estimate_cardinality(),
            )

        assert run("numpy") == run("native")

    def test_adaptive_hashflow(self):
        """AdaptiveHashFlow drives the scalar probe/offer contract on
        the SoA tables directly."""
        stream = make_stream(6000, 1200, seed=17)
        a, b = paired(AdaptiveHashFlow, main_cells=128, seed=17, window=512)
        a.process_batch(stream)
        b.process_batch(stream)
        assert a.records() == b.records()
        assert meter_tuple(a) == meter_tuple(b)
        probes = probe_keys(stream)
        assert np.array_equal(a.query_batch(probes), b.query_batch(probes))


@needs_native
class TestExportIdentity:
    def test_netflow_datagrams_identical(self):
        """The whole pipeline through to NetFlow v5 wire bytes."""
        stream = make_stream(6000, 1200, seed=23)
        sizes = np.random.default_rng(23).integers(40, 1500, len(stream)).astype(
            np.int64
        )
        batch = KeyBatch(stream, sizes=sizes)

        def export(kernel):
            c = HashFlow(main_cells=256, track_bytes=True, seed=23, kernel=kernel)
            c.process_batch(batch)
            exporter = NetFlowV5Exporter(engine_id=1)
            return exporter.export(
                RecordBatch(*c.record_columns()),
                sys_uptime_ms=1000,
                unix_secs=1_700_000_000,
            )

        assert export("numpy") == export("native")


# ----------------------------------------------------------------------
# Tier selection, spec round-trip, guard rails
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            requested_kernel("fortran")
        with pytest.raises(ValueError, match="unknown kernel tier"):
            HashFlow(main_cells=32, kernel="fortran")

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(native.KERNEL_ENV, raising=False)
        assert requested_kernel() == "numpy"
        c = HashFlow(main_cells=32)
        assert c.kernel == "numpy"
        # The env-resolved default is NOT recorded in the spec: the spec
        # describes the experiment, not this machine.
        assert "kernel" not in c.spec.params

    def test_env_selects_tier(self, monkeypatch):
        monkeypatch.setenv(native.KERNEL_ENV, "native")
        assert requested_kernel() == "native"
        c = HashFlow(main_cells=32)
        assert "kernel" not in c.spec.params
        if native_available():
            assert c.kernel == "native"

    @needs_native
    def test_explicit_kernel_spec_round_trip(self):
        c = HashFlow(main_cells=64, kernel="native")
        assert c.spec.params["kernel"] == "native"
        rebuilt = build(c.spec)
        assert rebuilt.kernel == "native"
        stream = make_stream(500, 100, seed=1)
        c.process_batch(stream)
        rebuilt.process_batch(stream)
        assert c.records() == rebuilt.records()

    @needs_native
    def test_wide_ancillary_counters_rejected(self):
        with pytest.raises(ValueError, match="counter_bits"):
            HashFlow(main_cells=32, ancillary_counter_bits=63, kernel="native")

    @needs_native
    def test_wide_countmin_counters_rejected(self):
        with pytest.raises(ValueError, match="counter_bits"):
            CountMinSketch(64, counter_bits=63, kernel="native")

    @needs_native
    def test_build_is_cached(self, monkeypatch):
        """A second load reuses the cached object (same handle)."""
        assert load_kernels() is load_kernels()


# ----------------------------------------------------------------------
# Forced fallback: the compiler-less machine
# ----------------------------------------------------------------------
@pytest.fixture
def no_compiler(monkeypatch):
    """Simulate a machine without a C compiler and isolate the module's
    warn-once / failure-cache state."""
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler")
    saved_failed = dict(native._failed)
    saved_warned = native._warned_fallback
    native._failed.clear()
    native._warned_fallback = False
    yield
    native._failed.clear()
    native._failed.update(saved_failed)
    native._warned_fallback = saved_warned


class TestForcedFallback:
    def test_no_compiler_found(self, no_compiler):
        assert find_compiler() is None
        with pytest.raises(NativeBuildError, match="no C compiler"):
            load_kernels()
        assert not native_available()

    def test_fallback_warns_once(self, no_compiler):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_kernel("native") == ("numpy", None)
        # Second resolution must be silent (warn-once per process).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("native") == ("numpy", None)

    def test_collectors_degrade_to_numpy(self, no_compiler):
        with pytest.warns(RuntimeWarning):
            c = HashFlow(main_cells=64, kernel="native")
        assert c.kernel == "numpy"
        stream = make_stream(1000, 200, seed=2)
        c.process_batch(stream)
        oracle = HashFlow(main_cells=64, kernel="numpy")
        oracle.process_batch(stream)
        assert c.records() == oracle.records()
        # The explicit request is still recorded in the spec: the same
        # spec on a machine with a compiler runs native.
        assert c.spec.params["kernel"] == "native"

    def test_numpy_request_never_probes_compiler(self, no_compiler, monkeypatch):
        """Asking for numpy must not attempt a build at all."""
        # resolve_kernel(None) defers to REPRO_KERNEL; clear it so the
        # default-numpy path is what's under test even when the suite
        # itself runs under REPRO_KERNEL=native.
        monkeypatch.delenv(native.KERNEL_ENV, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("numpy") == ("numpy", None)
            assert resolve_kernel(None) == ("numpy", None)

    def test_kernel_info_reports_failure(self, no_compiler):
        info = kernel_info()
        assert info["available"] is False
        assert info["compiler"] is None
        assert info["library"] is None
        assert "no C compiler" in info["error"]


@needs_native
class TestKernelInfo:
    def test_reports_availability(self):
        info = kernel_info()
        assert info["available"] is True
        assert info["error"] is None
        assert info["library"].endswith(".so")
        assert info["abi_version"] == native.ABI_VERSION
        assert info["compiler"]

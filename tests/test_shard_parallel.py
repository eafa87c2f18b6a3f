"""Shared-memory shard-parallel ingest: bit-identity and lifecycle.

The contract under test (DESIGN §9): ``ShardedCollector(jobs=N)`` is
bit-identical to serial ingest — records, per-shard merged cost
meters, batched query answers, and exported NetFlow v5 bytes — on
every kernel tier, with no ``/dev/shm`` litter left behind.
"""

from __future__ import annotations

import glob
import os
import signal

import numpy as np
import pytest

from repro.core.hashflow import HashFlow
from repro.native import native_available
from repro.netwide.sharding import ShardedCollector
from repro.shm import SEGMENT_PREFIX, SHARD_JOBS_ENV, resolve_shard_jobs
from repro.specs import CollectorSpec, SpecError, build
from repro.traces.profiles import CAIDA

KERNELS = ["numpy"] + (["native"] if native_available() else [])


def shm_entries() -> set[str]:
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


@pytest.fixture(scope="module")
def shard_trace():
    return CAIDA.generate(n_flows=3000, seed=11)


def make_spec(kernel: str, track_bytes: bool) -> CollectorSpec:
    params = {"main_cells": 1024, "seed": 3, "kernel": kernel}
    if track_bytes:
        params["track_bytes"] = True
    return CollectorSpec("hashflow", params)


def batch_for(trace, track_bytes: bool):
    sizes = None
    if track_bytes:
        sizes = np.random.default_rng(7).integers(
            40, 1500, size=len(trace)
        ).astype(np.int64)
    return trace.key_batch(sizes=sizes)


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("jobs", [2, 4])
    @pytest.mark.parametrize("track_bytes", [False, True])
    def test_parallel_matches_serial(
        self, shard_trace, kernel, jobs, track_bytes
    ):
        before = shm_entries()
        spec = make_spec(kernel, track_bytes)
        batch = batch_for(shard_trace, track_bytes)
        serial = ShardedCollector(spec, n_shards=4, seed=9, jobs=1)
        parallel = ShardedCollector(spec, n_shards=4, seed=9, jobs=jobs)
        try:
            for collector in (serial, parallel):
                # Two passes exercise input-segment reuse.
                collector.process_batch(batch)
                collector.process_batch(batch)
            assert parallel.records() == serial.records()
            probe = list(serial.records())[:300] + [
                (1 << 100) + i for i in range(50)
            ]
            assert np.array_equal(
                parallel.query_batch(probe), serial.query_batch(probe)
            )
            assert parallel.meter.packets == serial.meter.packets
            assert parallel.meter.hashes == serial.meter.hashes
            for s, p in zip(serial.shards, parallel.shards):
                assert (
                    s.meter.packets,
                    s.meter.hashes,
                    s.meter.reads,
                    s.meter.writes,
                    s.promotions,
                ) == (
                    p.meter.packets,
                    p.meter.hashes,
                    p.meter.reads,
                    p.meter.writes,
                    p.promotions,
                )
                if track_bytes:
                    assert s.main.byte_records() == p.main.byte_records()
        finally:
            parallel.close()
            serial.close()
        assert shm_entries() == before, "leaked /dev/shm segments"

    def test_netflow_v5_bytes_identical(self, shard_trace):
        """The full export path: serial and parallel datagrams match."""
        from repro.stream.pipeline import Pipeline
        from repro.stream.sinks import NetFlowV5Sink

        def run(jobs: int):
            collector = ShardedCollector(
                make_spec("numpy", False), n_shards=4, seed=9, jobs=jobs
            )
            sink = NetFlowV5Sink()
            pipeline = Pipeline(
                source={
                    "kind": "synthetic",
                    "params": {"profile": "caida", "n_flows": 800, "seed": 4},
                },
                collector=collector,
                rotation={"kind": "count", "params": {"epoch_packets": 1000}},
                sinks=(),
            )
            pipeline.sinks = (sink,)
            result = pipeline.run()
            collector.close()
            return result, sink

        serial_result, serial_sink = run(1)
        parallel_result, parallel_sink = run(2)
        assert parallel_result.records == serial_result.records
        assert parallel_sink.datagrams == serial_sink.datagrams


class TestLifecycle:
    def test_close_keeps_collector_queryable(self, shard_trace):
        spec = make_spec("numpy", False)
        collector = ShardedCollector(spec, n_shards=2, seed=1, jobs=2)
        collector.process_batch(shard_trace.key_batch())
        records = collector.records()
        collector.close()
        collector.close()  # idempotent
        assert collector.records() == records
        assert shm_entries() == set() or all(
            SEGMENT_PREFIX not in e for e in shm_entries()
        )

    def test_worker_crash_fails_fast(self, shard_trace):
        collector = ShardedCollector(
            make_spec("numpy", False), n_shards=2, seed=1, jobs=2
        )
        try:
            collector.warm()
            for pid in list(collector._engine._pool._processes):
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="worker crashed"):
                collector.process_batch(shard_trace.key_batch())
        finally:
            collector.close()

    def test_jobs_clamped_to_shards(self):
        collector = ShardedCollector(
            make_spec("numpy", False), n_shards=2, seed=1, jobs=16
        )
        try:
            assert collector.jobs == 2
        finally:
            collector.close()

    def test_scalar_process_works_in_parallel_mode(self, shard_trace):
        """Scalar updates write the shared planes directly (same memory)."""
        spec = make_spec("numpy", False)
        serial = ShardedCollector(spec, n_shards=2, seed=1, jobs=1)
        parallel = ShardedCollector(spec, n_shards=2, seed=1, jobs=2)
        try:
            for key in shard_trace.flow_keys[:500]:
                serial.process(key)
                parallel.process(key)
            assert parallel.records() == serial.records()
        finally:
            parallel.close()


class TestConfiguration:
    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv(SHARD_JOBS_ENV, raising=False)
        assert resolve_shard_jobs() == 1
        assert resolve_shard_jobs(3) == 3
        monkeypatch.setenv(SHARD_JOBS_ENV, "2")
        assert resolve_shard_jobs() == 2
        assert resolve_shard_jobs(jobs=0) == (os.cpu_count() or 1)
        monkeypatch.setenv(SHARD_JOBS_ENV, "not-a-number")
        with pytest.raises(ValueError, match=SHARD_JOBS_ENV):
            resolve_shard_jobs()

    def test_env_activates_engine(self, monkeypatch, shard_trace):
        monkeypatch.setenv(SHARD_JOBS_ENV, "2")
        spec = make_spec("numpy", False)
        collector = ShardedCollector(spec, n_shards=4, seed=9)
        try:
            assert collector.jobs == 2
            assert collector._engine is not None
            # The env-resolved mode is not recorded: specs stay portable.
            assert "jobs" not in collector.spec.to_dict()["params"]
        finally:
            collector.close()

    def test_explicit_jobs_recorded_and_round_trips(self):
        collector = ShardedCollector(
            make_spec("numpy", False), n_shards=4, seed=9, jobs=2
        )
        try:
            spec_dict = collector.spec.to_dict()
            assert spec_dict["params"]["jobs"] == 2
            twin = build(collector.spec)
            try:
                assert twin.jobs == 2
            finally:
                twin.close()
        finally:
            collector.close()

    def test_unshareable_kind_rejected(self):
        with pytest.raises(SpecError, match="not"):
            ShardedCollector(
                CollectorSpec("countmin", {"width": 64, "depth": 2}),
                n_shards=2,
                jobs=2,
            )

    @pytest.mark.parametrize("track_bytes", [False, True])
    def test_numpy_ingest_planes_equals_process_batch(
        self, shard_trace, track_bytes
    ):
        """A numpy-tier collector ingests bare key halves into its
        Python-list planes exactly as ``process_batch`` does."""
        batch = batch_for(shard_trace, track_bytes)
        lo, hi = batch.halves()
        kwargs = dict(main_cells=256, seed=3, track_bytes=track_bytes, kernel="numpy")
        planes, batched = HashFlow(**kwargs), HashFlow(**kwargs)
        planes.ingest_planes(lo, hi, batch.sizes)
        batched.process_batch(batch)
        assert isinstance(planes.main.counts, list)
        assert planes.promotions == batched.promotions > 0
        assert planes.records() == batched.records()
        assert [getattr(planes.meter, f) for f in planes.meter.__slots__] == [
            getattr(batched.meter, f) for f in batched.meter.__slots__
        ]
        if track_bytes:
            assert planes.byte_records() == batched.byte_records()


class TestPipelineDispatch:
    def test_netwide_pipeline_serial_equals_parallel(self):
        """The previously-undispatchable netwide source round-trips
        through a shared trace segment, bit-identically."""
        from repro.stream.pipeline import Pipeline, run_pipelines
        from repro.stream.spec import PipelineSpec

        before = shm_entries()
        spec = PipelineSpec(
            source={
                "kind": "netwide",
                "params": {"profile": "caida", "n_flows": 600, "seed": 3},
            },
            collector={"kind": "hashflow", "params": {"main_cells": 512}},
            rotation={"kind": "count", "params": {"epoch_packets": 1500}},
            sinks=({"kind": "netflow_v5", "params": {}},),
        )
        direct = Pipeline.from_spec(spec).run().summary()
        serial = run_pipelines([spec], jobs=1)
        parallel = run_pipelines([spec], jobs=2)
        assert serial == [direct]
        assert parallel == [direct]
        assert shm_entries() == before, "leaked shared-trace segments"

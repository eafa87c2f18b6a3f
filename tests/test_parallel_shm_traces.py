"""Tests for shared-memory plan traces.

The engine's parallel path publishes each distinct base trace once as
a shared-memory segment and hands workers zero-copy refs instead of
per-worker mmap loads; the disk path remains the fallback when a
segment cannot be created.  Contract: bit-identical rows to both the
serial path and the disk-backed parallel path, and no leaked segments.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

import repro.shm
from repro.parallel import (
    SweepCell,
    WorkloadRef,
    WorkloadStore,
    materialize_refs,
    run_plan,
    share_plan_traces,
)
from repro.shm import attach_trace


@pytest.fixture()
def trace_cache(tmp_path, monkeypatch):
    root = tmp_path / "trace-cache"
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(root))
    return root


def shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro-shm-*"))


def make_cells() -> list[SweepCell]:
    # Two cells sharing one base trace via trial subsetting, plus one
    # on a different profile — exercises both the rewrite and the
    # carried-over subset parameters.
    shared = dict(
        spec_or_kind="hashflow", memory_bytes=32 * 1024, seed=0,
        metrics=("fsc", "records"),
    )
    return [
        SweepCell(
            workload=WorkloadRef(
                profile="caida", n_flows=150, base_flows=300, seed=1
            ),
            **shared,
        ),
        SweepCell(
            workload=WorkloadRef(
                profile="caida", n_flows=300, base_flows=300, seed=1
            ),
            **shared,
        ),
        SweepCell(
            workload=WorkloadRef(profile="campus", n_flows=200, seed=2),
            **shared,
        ),
    ]


class TestShareRewrite:
    def test_refs_rewritten_to_shm_with_subset_params(self, trace_cache):
        cells = make_cells()
        materialize_refs(cells, trace_cache)
        shared, segments = share_plan_traces(cells, trace_cache)
        try:
            # One segment per distinct base trace, not per cell.
            assert len(segments) == 2
            for original, rewritten in zip(cells, shared):
                ref = rewritten.workload
                assert ref.shm is not None
                assert ref.n_flows == original.workload.n_flows
                assert ref.base_flows == original.workload.base_flows
                assert ref.seed == original.workload.seed
            # Cells over the same base share the same segment (field 0
            # of the SharedTraceRef tuple is the segment name).
            assert shared[0].workload.shm[0] == shared[1].workload.shm[0]
            assert shared[0].workload.shm[0] != shared[2].workload.shm[0]
        finally:
            for segment in segments:
                segment.unlink()

    def test_shared_trace_arrays_match_disk(self, trace_cache):
        cells = make_cells()
        materialize_refs(cells, trace_cache)
        shared, segments = share_plan_traces(cells, trace_cache)
        try:
            store = WorkloadStore(trace_root=trace_cache)
            for original, rewritten in zip(cells, shared):
                disk = store.base_trace(original.workload)
                shm = attach_trace(rewritten.workload.shm)
                np.testing.assert_array_equal(
                    shm.key_batch().halves()[0], disk.key_batch().halves()[0]
                )
        finally:
            for segment in segments:
                segment.unlink()

    def test_store_subsets_shm_refs_like_profile_refs(self, trace_cache):
        cells = make_cells()
        materialize_refs(cells, trace_cache)
        shared, segments = share_plan_traces(cells, trace_cache)
        try:
            store = WorkloadStore(trace_root=trace_cache)
            plain = WorkloadStore(trace_root=trace_cache)
            subset_shm = store.get(shared[0].workload).trace
            subset_disk = plain.get(cells[0].workload).trace
            assert len(subset_shm) == len(subset_disk)
            np.testing.assert_array_equal(
                subset_shm.key_batch().halves()[0],
                subset_disk.key_batch().halves()[0],
            )
        finally:
            for segment in segments:
                segment.unlink()


class TestPlanIdentity:
    def test_parallel_shm_rows_match_serial_and_disk(self, trace_cache, monkeypatch):
        cells = make_cells()
        serial = run_plan(cells, jobs=1)
        refused = []

        def no_shared_memory(trace, label="trace"):
            refused.append(label)
            raise OSError("no shared memory")

        with monkeypatch.context() as patch:
            # No segment can be created: every trace takes the disk path.
            patch.setattr(repro.shm, "share_trace", no_shared_memory)
            disk = run_plan(cells, jobs=2)
        assert len(refused) == 2  # one attempt per distinct base trace
        before = shm_segments()
        shm = run_plan(cells, jobs=2)
        assert [r.rows for r in shm] == [r.rows for r in serial]
        assert [r.rows for r in shm] == [r.rows for r in disk]
        assert [r.meter for r in shm] == [r.meter for r in serial]
        # The plan's trace segments were unlinked on the way out.
        assert shm_segments() == before

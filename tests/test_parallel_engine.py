"""Tests for repro.parallel: plans, workload refs, engine mechanics.

The figure-level serial-vs-parallel bit-identity matrix lives in
``tests/test_parallel_identity.py``; this module covers the engine's
building blocks.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys

import numpy as np
import pytest

import repro.shm.segments
from repro.experiments.runner import make_workload
from repro.parallel import (
    CellResult,
    SweepCell,
    WorkloadRef,
    WorkloadStore,
    evaluate_cell,
    merge_meters,
    resolve_jobs,
    run_plan,
)
from repro.parallel import engine
from repro.specs import CollectorSpec
from repro.traces.profiles import CAIDA, PROFILES, TraceProfile


REF = WorkloadRef(profile="caida", n_flows=1500, seed=1)


def make_cell(**overrides) -> SweepCell:
    defaults = dict(
        workload=REF,
        spec_or_kind="hashflow",
        memory_bytes=32 * 1024,
        seed=0,
        metrics=("fsc", "size_are"),
    )
    defaults.update(overrides)
    return SweepCell(**defaults)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3
        assert resolve_jobs() == 7

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()


class TestWorkloadRef:
    def test_profile_refs_require_n_flows(self):
        with pytest.raises(TypeError, match="n_flows"):
            WorkloadRef(profile="caida")

    def test_base_key_shared_across_subsets(self):
        a = WorkloadRef(profile="caida", n_flows=100, seed=2, base_flows=1000)
        b = WorkloadRef(profile="caida", n_flows=500, seed=2, base_flows=1000)
        assert a.base_key() == b.base_key()
        assert a != b

    def test_materialization_matches_make_workload(self):
        """A profile ref rebuilds exactly what make_workload builds."""
        store = WorkloadStore()
        ref = WorkloadRef(profile="caida", n_flows=800, seed=3, base_flows=1200)
        direct = make_workload(PROFILES["caida"], 800, seed=3, base_flows=1200)
        via_ref = store.get(ref).workload
        assert via_ref.trace.flow_keys == direct.trace.flow_keys
        assert np.array_equal(via_ref.trace.order, direct.trace.order)
        assert via_ref.true_sizes == direct.true_sizes

    def test_store_caches_per_ref(self):
        store = WorkloadStore()
        assert store.get(REF) is store.get(REF)
        other = WorkloadRef(profile="caida", n_flows=1500, seed=9)
        assert store.get(other) is not store.get(REF)

    def test_store_evicts_beyond_cap(self):
        """The per-process cache is a small LRU, not an unbounded map:
        a long plan must not pin every workload it ever touched."""
        store = WorkloadStore(max_cached=2)
        refs = [
            WorkloadRef(profile="caida", n_flows=600, seed=s) for s in range(3)
        ]
        first = store.get(refs[0])
        store.get(refs[1])
        store.get(refs[2])  # evicts refs[0]
        assert store.get(refs[0]) is not first
        assert len(store._workloads) <= 2

    def test_store_serves_given_traces_first(self, tiny_trace):
        """Given traces are found by key, even an empty (falsy) one,
        and stay out of the LRU: evicting workloads never drops them."""
        empty = tiny_trace.truncate_packets(0)
        assert not empty
        refs = [
            WorkloadRef(profile="caida", n_flows=600, seed=s) for s in range(3)
        ]
        given = {refs[0].base_key(): empty}
        store = WorkloadStore(traces=given, max_cached=1)
        assert store.base_trace(refs[0]) is empty
        store.get(refs[1])
        store.get(refs[2])
        assert store.base_trace(refs[0]) is empty
        assert refs[0].base_key() not in store._traces


class TestSweepCell:
    def test_spec_normalized_to_dict(self):
        spec = CollectorSpec("hashflow", {"main_cells": 64})
        cell = make_cell(spec_or_kind=spec)
        assert cell.spec_or_kind == spec.to_dict()

    def test_collectorless_cell_rejects_collector_metrics(self):
        with pytest.raises(ValueError, match="need a collector"):
            SweepCell(workload=REF, metrics=("fsc",))

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(TypeError, match="collector kind or spec"):
            make_cell(spec_or_kind=3.14)


class TestSerialExecution:
    def test_cell_rows_match_direct_evaluation(self):
        """Engine rows equal hand-computed metrics on the same workload."""
        from repro.analysis.metrics import flow_set_coverage
        from repro.specs import build

        [result] = run_plan([make_cell()])
        workload = make_workload(PROFILES["caida"], 1500, seed=1)
        collector = build("hashflow", memory_bytes=32 * 1024, seed=0)
        workload.feed(collector)
        expected_fsc = flow_set_coverage(collector.records(), workload.true_sizes)
        assert result.rows[0]["fsc"] == expected_fsc
        assert result.rows[0]["size_are"] == workload.size_are(collector)
        assert result.meter["packets"] == workload.num_packets

    def test_results_carry_plan_index_and_label(self):
        cells = [make_cell(label="a"), make_cell(label="b")]
        results = run_plan(cells)
        assert [r.key for r in results] == [(0, "a"), (1, "b")]

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError, match="unknown sweep metric"):
            run_plan([make_cell(metrics=("nope",))])

    def test_stats_cell_needs_no_collector(self):
        [result] = run_plan([SweepCell(workload=REF, metrics=("stats",))])
        assert result.rows[0]["flows"] == 1500
        assert result.meter == {"packets": 0, "hashes": 0, "reads": 0, "writes": 0}

    def test_merge_meters_sums_counters(self):
        results = [
            CellResult(key=(0, None), rows=({},), meter={"packets": 2, "hashes": 3, "reads": 1, "writes": 1}),
            CellResult(key=(1, None), rows=({},), meter={"packets": 5, "hashes": 0, "reads": 2, "writes": 0}),
        ]
        assert merge_meters(results) == {
            "packets": 7, "hashes": 3, "reads": 3, "writes": 1,
        }


class TestParallelExecution:
    def test_parallel_equals_serial(self):
        cells = [
            make_cell(spec_or_kind=kind, memory_bytes=budget)
            for kind in ("hashflow", "hashpipe")
            for budget in (16 * 1024, 32 * 1024)
        ]
        serial = run_plan(cells, jobs=1)
        parallel = run_plan(cells, jobs=2)
        assert [r.rows for r in serial] == [r.rows for r in parallel]
        assert [r.meter for r in serial] == [r.meter for r in parallel]
        assert [r.key for r in serial] == [r.key for r in parallel]

    def test_worker_exception_surfaces(self):
        """A raising cell propagates its original exception; the pool
        shuts down instead of hanging."""
        cells = [make_cell(), make_cell(metrics=("explode",))]
        with pytest.raises(ValueError, match="unknown sweep metric 'explode'"):
            run_plan(cells, jobs=2)

    def test_parent_generates_each_base_trace_once(self, parent_generates_only):
        a = WorkloadRef(profile="caida", n_flows=200, seed=5, base_flows=1000)
        b = WorkloadRef(profile="caida", n_flows=700, seed=5, base_flows=1000)
        cells = [SweepCell(workload=r, metrics=("stats",)) for r in (a, b)]
        run_plan(cells, jobs=2)
        assert parent_generates_only == [("caida", 1000)]

    def test_env_jobs_engages_parallel_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        cells = [make_cell(), make_cell(memory_bytes=16 * 1024)]
        env_run = run_plan(cells)
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = run_plan(cells)
        assert [r.rows for r in env_run] == [r.rows for r in serial]


def three_cells() -> list[SweepCell]:
    """Two trial subsets of one CAIDA base trace plus a campus trace."""
    shared = dict(
        spec_or_kind="hashflow", memory_bytes=32 * 1024, seed=0,
        metrics=("fsc", "records"),
    )
    return [
        SweepCell(
            workload=WorkloadRef(profile="caida", n_flows=n, base_flows=300, seed=1),
            **shared,
        )
        for n in (150, 300)
    ] + [
        SweepCell(
            workload=WorkloadRef(profile="campus", n_flows=200, seed=2), **shared
        )
    ]


@pytest.fixture()
def parent_generates_only(monkeypatch):
    """Fail any shared-memory segment, and any trace generation outside
    this process; returns the parent's generation calls."""
    original = repro.shm.segments.create_segment

    def no_segment(*_args, **_kwargs):
        raise AssertionError("a sweep created a shared-memory segment")

    # Every module that bound the function by name, not only its home.
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("create_segment") is original:
            monkeypatch.setattr(module, "create_segment", no_segment)

    parent = os.getpid()
    generate = TraceProfile.generate
    calls = []

    def in_parent(self, n_flows, *args, **kwargs):
        assert os.getpid() == parent, "a worker regenerated a base trace"
        calls.append((self.name, n_flows))
        return generate(self, n_flows, *args, **kwargs)

    monkeypatch.setattr(TraceProfile, "generate", in_parent)
    return calls


class TestOneTraceTransport:
    def test_workers_inherit_the_parents_traces(self, parent_generates_only):
        cells = three_cells()
        serial = run_plan(cells, jobs=1)
        parallel = run_plan(cells, jobs=2)
        assert [r.rows for r in parallel] == [r.rows for r in serial]
        assert [r.meter for r in parallel] == [r.meter for r in serial]

    def test_spawned_workers_unpickle_the_traces(self, monkeypatch):
        cells = three_cells()
        serial = run_plan(cells, jobs=1)
        monkeypatch.setattr(engine, "_mp_context", lambda: mp.get_context("spawn"))
        spawned = run_plan(cells, jobs=2)
        assert [r.rows for r in spawned] == [r.rows for r in serial]
        assert [r.meter for r in spawned] == [r.meter for r in serial]

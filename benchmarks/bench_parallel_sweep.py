"""Serial vs multi-core sweep execution (not a paper figure).

Times the memory-sweep grid (budgets × the four evaluated algorithms
on one CAIDA workload) through ``repro.parallel.run_plan`` at 1, 2 and
4 workers, asserts the parallel rows are bit-identical to the serial
ones, and persists the measured speedups:

* ``benchmarks/results/BENCH_parallel_sweep.json`` — this bench's full
  record (per-job-count wall clock and speedup);
* ``BENCH_headline.json`` at the repo root — the repo's headline perf
  trajectory (update packets/sec, query ops/sec, parallel speedup), a
  single file future PRs can diff against.

Speedup floors are environment-driven because they are *hardware*
claims: ``PARALLEL_SPEEDUP_FLOOR`` (default 0 = record only) is
asserted against the 2-worker speedup — CI sets it on multi-core
runners.  On a single-core container a multi-worker speedup is not an
aspirational number that came in low, it is unmeasurable: process-pool
overhead guarantees < 1x.  So with fewer than 2 CPUs the timed
comparison is *skipped with an explicit reason* and the headline
records ``parallel_speedup_* = null`` plus that reason, instead of
silently persisting a sub-1x figure a future PR might mistake for a
regression.  Grid sizes follow ``REPRO_SCALE``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, environment_fields, update_headline
from repro.experiments.runner import make_workload
from repro.parallel import SweepCell, WorkloadRef, run_plan
from repro.specs import EVALUATED_KINDS, build, resolve_scale
from repro.traces.profiles import CAIDA

JSON_PATH = RESULTS_DIR / "BENCH_parallel_sweep.json"

BUDGETS = [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024]

#: Minimum acceptable 2-worker speedup (0 = record only; CI sets 1.2).
SPEEDUP_FLOOR = float(os.environ.get("PARALLEL_SPEEDUP_FLOOR", "0"))

JOB_COUNTS = (2, 4)


def _timed_plan(cells, jobs):
    start = time.perf_counter()
    results = run_plan(cells, jobs=jobs)
    return time.perf_counter() - start, results


def _measure_headline_rates() -> dict[str, float]:
    """Quick single-collector update/query rates for the trajectory."""
    workload = make_workload(CAIDA, 4000, seed=1)
    collector = build("hashflow", memory_bytes=64 * 1024, seed=0)
    start = time.perf_counter()
    workload.feed(collector)
    update_s = time.perf_counter() - start
    start = time.perf_counter()
    workload.query_estimates(collector)
    query_s = time.perf_counter() - start
    return {
        "update_pps": round(workload.num_packets / update_s),
        "query_qps": round(len(workload.truth_batch) / query_s),
    }


def test_parallel_sweep_recorded():
    """Record serial-vs-parallel wall clock on the memory-sweep grid."""
    cpus = os.cpu_count() or 1
    if cpus < 2:
        # The headline still gets the single-collector rates and an
        # honest explanation of why the parallel fields are absent.
        reason = (
            f"multi-worker speedup not measurable on {cpus} CPU: "
            "process-pool overhead guarantees < 1x"
        )
        update_headline(
            **_measure_headline_rates(),
            parallel_speedup_2=None,
            parallel_speedup_4=None,
            parallel_skip_reason=reason,
            **environment_fields(),
        )
        pytest.skip(reason)
    scale = resolve_scale(None)
    n_flows = max(2000, int(round(200_000 * scale)))
    workload_ref = WorkloadRef(profile=CAIDA.name, n_flows=n_flows, seed=21)
    cells = [
        SweepCell(
            workload=workload_ref,
            spec_or_kind=kind,
            memory_bytes=budget,
            seed=3,
            metrics=("fsc", "size_are"),
            label=(budget, kind),
        )
        for budget in BUDGETS
        for kind in EVALUATED_KINDS
    ]
    serial_s, serial = _timed_plan(cells, jobs=1)
    timings: dict[int, float] = {}
    for jobs in JOB_COUNTS:
        elapsed, results = _timed_plan(cells, jobs=jobs)
        timings[jobs] = elapsed
        assert [r.rows for r in results] == [r.rows for r in serial], (
            f"parallel rows at jobs={jobs} diverged from serial rows"
        )
        assert [r.meter for r in results] == [r.meter for r in serial], (
            f"parallel meter totals at jobs={jobs} diverged from serial"
        )

    speedups = {jobs: serial_s / timings[jobs] for jobs in JOB_COUNTS}
    record = {
        "experiment": "parallel_sweep",
        "n_cells": len(cells),
        "n_flows": n_flows,
        "budgets": BUDGETS,
        "cpus": cpus,
        "scale": scale,
        "serial_s": round(serial_s, 3),
        "parallel_s": {str(j): round(t, 3) for j, t in timings.items()},
        "speedup": {str(j): round(s, 2) for j, s in speedups.items()},
    }
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nparallel sweep: serial {serial_s:.2f}s, " + ", ".join(
        f"{j} workers {timings[j]:.2f}s ({speedups[j]:.2f}x)" for j in JOB_COUNTS
    ))

    update_headline(
        **_measure_headline_rates(),
        parallel_speedup_2=round(speedups[2], 2),
        parallel_speedup_4=round(speedups[4], 2),
        parallel_skip_reason=None,
        **environment_fields(),
    )

    if SPEEDUP_FLOOR > 0:
        assert speedups[2] >= SPEEDUP_FLOOR, (
            f"2-worker sweep speedup is only {speedups[2]:.2f}x "
            f"(floor {SPEEDUP_FLOOR}x) on {cpus} CPUs — "
            "parallel engine regression"
        )

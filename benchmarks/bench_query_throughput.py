"""Point-query throughput of every collector: scalar vs batched.

Not a paper figure: the query-side twin of ``bench_update_throughput``.
Regenerating the paper's evaluation queries the same flow set against
every algorithm at every memory point (§IV), so the read path's speed
matters as much as the update path's.  Two paths are measured per
collector (see DESIGN.md §2b):

* **scalar** — one ``query(key)`` call per true flow, the seed path;
* **batched** — one ``query_batch`` call over the workload's cached
  truth batch, which engages the vectorized batch-query engine
  (precomputed hash rows, dict-gather, masked selects).

``test_query_speedup_recorded`` persists the scalar/batched ratios
under ``benchmarks/results/`` — a rendered table plus
``BENCH_query_throughput.json`` for the perf trajectory — and fails if
the engine regresses below the floor.  The workload defaults to the
1M-flow sweep the acceptance numbers quote; CI smoke runs shrink it
through ``QUERY_BENCH_FLOWS``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, update_headline
from repro.native import native_available
from repro.specs import build, build_evaluated
from repro.experiments.report import save_result
from repro.experiments.runner import ExperimentResult, make_workload
from repro.sketches.countmin import CountMinSketch
from repro.traces.profiles import CAIDA

#: Flows in the query sweep (= distinct keys queried per path).
N_FLOWS = int(os.environ.get("QUERY_BENCH_FLOWS", "1000000"))

#: Memory budget growing with the flow count so the table load factor
#: (flows per cell) matches the update bench's 4000-flow / 64 KB setup.
MEMORY = max(64 * 1024, N_FLOWS * 16)

#: Minimum acceptable batched/scalar query speedup for HashFlow,
#: HashPipe and count-min.  Measured well above 4x at the default
#: 1M-flow sweep; the default floor only guards against outright
#: regressions (< 1x) so small CI workloads, where fixed numpy call
#: overhead weighs more, do not flake.
SPEEDUP_FLOOR = float(os.environ.get("QUERY_SPEEDUP_FLOOR", "1.0"))

JSON_PATH = RESULTS_DIR / "BENCH_query_throughput.json"


@pytest.fixture(scope="module")
def workload():
    return make_workload(CAIDA, N_FLOWS, seed=1)


def _best_of(n_rounds, run):
    best = float("inf")
    for _ in range(n_rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(collector, workload) -> tuple[float, float]:
    """Best-of-3 scalar and batched sweep times over all true flows."""
    truth_keys = workload.truth_batch.keys

    def run_scalar():
        query = collector.query
        for key in truth_keys:
            query(key)

    def run_batched():
        collector.query_batch(workload.truth_batch)

    scalar = _best_of(3, run_scalar)
    batched = _best_of(3, run_batched)
    # The speedup only counts if the answers are identical; spot-check a
    # slice here (tests/test_query_batch.py enforces the full contract).
    sample = truth_keys[:512]
    assert collector.query_batch(sample).tolist() == [
        collector.query(k) for k in sample
    ]
    return scalar, batched


def test_query_speedup_recorded(workload):
    """Record the batched/scalar speedup of every batched query path."""
    n = len(workload.truth_batch)
    result = ExperimentResult(
        experiment_id="query_throughput_batch_speedup",
        title="Batched vs scalar point-query throughput (best of 3)",
        columns=["algorithm", "scalar_mqps", "batched_mqps", "speedup"],
        params={"memory_bytes": MEMORY, "n_flows": n},
        notes="scalar = per-flow query(); batched = one query_batch() "
        "sweep over the workload's cached truth batch.",
    )
    speedups: dict[str, float] = {}

    collectors = build_evaluated(MEMORY, seed=0)
    collectors["CountMinSketch"] = CountMinSketch(
        width=MEMORY // 4, depth=3, counter_bits=8, seed=0
    )
    for algo, collector in collectors.items():
        if hasattr(collector, "process_all"):
            workload.feed(collector)
        else:
            collector.add_batch(workload.batch)
        scalar, batched = _measure(collector, workload)
        speedups[algo] = scalar / batched
        result.add_row(
            algorithm=algo,
            scalar_mqps=round(n / scalar / 1e6, 3),
            batched_mqps=round(n / batched / 1e6, 3),
            speedup=round(scalar / batched, 2),
        )

    save_result(result, RESULTS_DIR)
    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "query_throughput",
                "memory_bytes": MEMORY,
                "n_flows": n,
                "rows": result.rows,
            },
            indent=2,
        )
        + "\n"
    )
    for algo in ("HashFlow", "HashPipe", "CountMinSketch"):
        assert speedups[algo] >= SPEEDUP_FLOOR, (
            f"{algo} batched query path is only {speedups[algo]:.2f}x the "
            f"scalar path (floor {SPEEDUP_FLOOR}x) — batch-query engine "
            "regression"
        )


def test_native_query_speedup_recorded(workload):
    """Record the native/numpy batched-query speedup for HashFlow.

    The query side of the native tier's headline claim; merged into
    ``BENCH_headline.json`` alongside the update-side ratio.
    """
    if not native_available():
        pytest.skip("native kernel tier unavailable (no C compiler)")
    n = len(workload.truth_batch)
    times = {}
    for tier in ("numpy", "native"):
        collector = build("hashflow", memory_bytes=MEMORY, seed=0, kernel=tier)
        workload.feed(collector)

        def run():
            collector.query_batch(workload.truth_batch)

        times[tier] = _best_of(3, run)
    speedup = times["numpy"] / times["native"]
    print(
        f"\nnative query: numpy {n / times['numpy'] / 1e6:.2f} Mqps, "
        f"native {n / times['native'] / 1e6:.2f} Mqps ({speedup:.2f}x)"
    )
    update_headline(
        native_query_qps=round(n / times["native"]),
        native_query_speedup=round(speedup, 2),
    )
    # Record-only by default: bit-identity already gates correctness and
    # the update-side floor gates the native tier's health in CI.
    assert speedup > 0

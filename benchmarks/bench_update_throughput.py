"""Per-packet update throughput of every collector (pure Python).

Not a paper figure: measures this implementation's raw update speed so
regressions in the hot paths are visible.  Absolute numbers are Python
numbers, not line-rate claims — the paper's throughput experiment is
``bench_fig11_throughput.py``.

Two paths are measured per collector (see DESIGN.md §2):

* **scalar** — one ``process(key)`` call per packet, the seed code path;
* **batched** — ``process_all``, which chunks the stream through
  ``process_batch`` and engages the vectorized batch-update engine for
  collectors that implement it (HashFlow, HashPipe, CountMinSketch).

``test_batch_speedup_recorded`` persists the scalar/batched ratio under
``benchmarks/results/`` and fails if the engine regresses below the
floor, so hot-path slowdowns are caught loudly.

``test_native_update_speedup_recorded`` measures the native C kernel
tier against the numpy tier on the same workload (the tiers are
bit-identical, so this ratio is pure speed) and merges the result into
``BENCH_headline.json``.  ``NATIVE_SPEEDUP_FLOOR`` (default 0 = record
only; the CI native-smoke job sets 3) turns the ratio into a gate.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, update_headline
from repro.native import native_available
from repro.specs import build, build_evaluated
from repro.experiments.report import save_result
from repro.experiments.runner import ExperimentResult, make_workload
from repro.sketches.countmin import CountMinSketch
from repro.sketches.exact import ExactCollector
from repro.sketches.sampled import SampledNetFlow
from repro.sketches.spacesaving import SpaceSaving
from repro.traces.profiles import CAIDA

MEMORY = 64 * 1024
N_FLOWS = 4000

#: Minimum acceptable batched/scalar speedup for HashFlow and count-min.
#: Measured ~4-5x and ~20x; the floor is deliberately lower so slower CI
#: machines do not flake, while a real engine regression (ratio -> ~1)
#: still fails.  HashPipe's ratio (~1.7x) is recorded only: it sits too
#: close to the floor to gate on a shared runner.
SPEEDUP_FLOOR = 1.5

#: Minimum acceptable native/numpy update speedup for HashFlow
#: (0 = record only; the CI native-smoke job sets 3).  Measured ~9x.
NATIVE_SPEEDUP_FLOOR = float(os.environ.get("NATIVE_SPEEDUP_FLOOR", "0"))


@pytest.fixture(scope="module")
def workload():
    return make_workload(CAIDA, N_FLOWS, seed=1)


@pytest.fixture(scope="module")
def stream(workload) -> list[int]:
    return workload.keys


def _bench_collector(benchmark, collector, stream):
    def run():
        collector.reset()
        collector.process_all(stream)

    benchmark.pedantic(run, rounds=3, iterations=1)
    assert collector.meter.packets == len(stream)


@pytest.mark.parametrize("algo", ["HashFlow", "HashPipe", "ElasticSketch", "FlowRadar"])
def test_update_throughput(benchmark, stream, algo):
    """Batched path: process_all chunks through the batch engine."""
    collector = build_evaluated(MEMORY, seed=0)[algo]
    _bench_collector(benchmark, collector, stream)


@pytest.mark.parametrize("algo", ["HashFlow", "HashPipe"])
def test_update_throughput_scalar(benchmark, stream, algo):
    """Scalar path: one process() call per packet (the seed code path)."""
    collector = build_evaluated(MEMORY, seed=0)[algo]

    def run():
        collector.reset()
        process = collector.process
        for key in stream:
            process(key)

    benchmark.pedantic(run, rounds=3, iterations=1)
    assert collector.meter.packets == len(stream)


def test_update_throughput_exact(benchmark, stream):
    _bench_collector(benchmark, ExactCollector(), stream)


def test_update_throughput_sampled(benchmark, stream):
    _bench_collector(benchmark, SampledNetFlow(every_n=100), stream)


def test_update_throughput_spacesaving(benchmark, stream):
    _bench_collector(benchmark, SpaceSaving(capacity=MEMORY * 8 // 168), stream)


# ----------------------------------------------------------------------
# Scalar-vs-batched speedup, persisted under benchmarks/results/
# ----------------------------------------------------------------------
def _best_of(n_rounds, run):
    best = float("inf")
    for _ in range(n_rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_speedup_recorded(stream):
    """Record the batched/scalar speedup of every batched update path.

    The batched engine must produce bit-identical state (enforced by
    ``tests/test_batch_engine.py``); this bench guards its reason to
    exist — the speedup — and persists the measured ratios.
    """
    result = ExperimentResult(
        experiment_id="update_throughput_batch_speedup",
        title="Batched vs scalar update throughput (best of 3)",
        columns=["algorithm", "scalar_mpps", "batched_mpps", "speedup"],
        params={"memory_bytes": MEMORY, "n_flows": N_FLOWS, "packets": len(stream)},
        notes="scalar = per-packet process()/add(); batched = "
        "process_all()/add_batch() through the batch-update engine.",
    )
    n = len(stream)
    speedups = {}
    for algo in ["HashFlow", "HashPipe"]:
        collector = build_evaluated(MEMORY, seed=0)[algo]

        def run_scalar():
            collector.reset()
            process = collector.process
            for key in stream:
                process(key)

        def run_batched():
            collector.reset()
            collector.process_all(stream)

        scalar = _best_of(3, run_scalar)
        batched = _best_of(3, run_batched)
        speedups[algo] = scalar / batched
        result.add_row(
            algorithm=algo,
            scalar_mpps=round(n / scalar / 1e6, 3),
            batched_mpps=round(n / batched / 1e6, 3),
            speedup=round(scalar / batched, 2),
        )

    sketch_args = dict(width=MEMORY // 4, depth=3, counter_bits=8, seed=0)
    cms = CountMinSketch(**sketch_args)

    def cms_scalar():
        cms.reset()
        add = cms.add
        for key in stream:
            add(key)

    def cms_batched():
        cms.reset()
        cms.add_batch(stream)

    scalar = _best_of(3, cms_scalar)
    batched = _best_of(3, cms_batched)
    speedups["CountMinSketch"] = scalar / batched
    result.add_row(
        algorithm="CountMinSketch",
        scalar_mpps=round(n / scalar / 1e6, 3),
        batched_mpps=round(n / batched / 1e6, 3),
        speedup=round(scalar / batched, 2),
    )

    save_result(result, RESULTS_DIR)
    for algo in ("HashFlow", "CountMinSketch"):
        assert speedups[algo] >= SPEEDUP_FLOOR, (
            f"{algo} batched path is only {speedups[algo]:.2f}x the "
            f"scalar path (floor {SPEEDUP_FLOOR}x) — batch engine regression"
        )


# ----------------------------------------------------------------------
# Native kernel tier vs the numpy tier, persisted into the headline
# ----------------------------------------------------------------------
def test_native_update_speedup_recorded(workload):
    """Record the native/numpy update speedup per batched collector.

    Bit-identity is enforced by ``tests/test_native_kernels.py``; this
    bench guards the native tier's reason to exist — the speedup — and
    merges HashFlow's ratio into the headline trajectory.  Both tiers
    consume the workload's cached :class:`KeyBatch` (presplit halves),
    so the ratio measures the table walk, not Python-int coercion both
    tiers would pay identically.
    """
    if not native_available():
        pytest.skip("native kernel tier unavailable (no C compiler)")
    batch = workload.batch
    n = len(batch)
    result = ExperimentResult(
        experiment_id="update_throughput_native_speedup",
        title="Native vs numpy update throughput (best of 3)",
        columns=["algorithm", "numpy_mpps", "native_mpps", "speedup"],
        params={"memory_bytes": MEMORY, "n_flows": N_FLOWS, "packets": n},
        notes="Both tiers run process_all over the same presplit "
        "KeyBatch; the tiers are bit-identical, so the ratio is pure "
        "speed.",
    )
    speedups: dict[str, float] = {}
    rates: dict[str, float] = {}
    for kind, algo in (("hashflow", "HashFlow"), ("hashpipe", "HashPipe")):
        times = {}
        for tier in ("numpy", "native"):
            collector = build(kind, memory_bytes=MEMORY, seed=0, kernel=tier)

            def run():
                collector.reset()
                collector.process_all(batch)

            times[tier] = _best_of(3, run)
        speedups[algo] = times["numpy"] / times["native"]
        rates[algo] = n / times["native"]
        result.add_row(
            algorithm=algo,
            numpy_mpps=round(n / times["numpy"] / 1e6, 3),
            native_mpps=round(n / times["native"] / 1e6, 3),
            speedup=round(speedups[algo], 2),
        )

    cms_times = {}
    for tier in ("numpy", "native"):
        cms = CountMinSketch(
            width=MEMORY // 4, depth=3, counter_bits=8, seed=0, kernel=tier
        )

        def run_cms():
            cms.reset()
            cms.add_batch(batch)

        cms_times[tier] = _best_of(3, run_cms)
    result.add_row(
        algorithm="CountMinSketch",
        numpy_mpps=round(n / cms_times["numpy"] / 1e6, 3),
        native_mpps=round(n / cms_times["native"] / 1e6, 3),
        speedup=round(cms_times["numpy"] / cms_times["native"], 2),
    )

    save_result(result, RESULTS_DIR)
    update_headline(
        native_update_pps=round(rates["HashFlow"]),
        native_update_speedup=round(speedups["HashFlow"], 2),
    )
    if NATIVE_SPEEDUP_FLOOR > 0:
        assert speedups["HashFlow"] >= NATIVE_SPEEDUP_FLOOR, (
            f"HashFlow native tier is only {speedups['HashFlow']:.2f}x the "
            f"numpy tier (floor {NATIVE_SPEEDUP_FLOOR}x) — native kernel "
            "regression"
        )

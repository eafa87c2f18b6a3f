"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures via
``repro.experiments.figures``, prints the rows the paper reports, and
writes them under ``benchmarks/results/``.  Sizes follow the
``REPRO_SCALE`` environment variable (default 0.1; 1.0 = paper scale —
see DESIGN.md §4 "Scaling convention" for why the paper's ratios are
preserved at any scale); sweep-shaped benches execute through
``repro.parallel`` and honour ``REPRO_JOBS`` (DESIGN.md §6).

The repo's headline perf trajectory — update packets/sec, query
ops/sec, native-kernel speedups, parallel speedup — is persisted at the
repo root as ``BENCH_headline.json``, so future PRs have a baseline to
diff against.  Several benches contribute fields; each merges its own
through :func:`update_headline` instead of clobbering the file, and the
record always carries the environment it was measured in (``cpus``,
``kernel`` tier, compiler availability) so a number can never be
mistaken for one from a bigger machine.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.report import render_table, save_result
from repro.experiments.runner import ExperimentResult
from repro.native import kernel_info

RESULTS_DIR = Path(__file__).resolve().parent / "results"

HEADLINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_headline.json"


def update_headline(**fields) -> dict:
    """Merge fields into ``BENCH_headline.json`` (read-modify-write).

    Benches run in any order and each owns a few keys; merging keeps
    one bench's numbers from erasing another's.  Returns the merged
    record.
    """
    record: dict = {}
    if HEADLINE_PATH.exists():
        record = json.loads(HEADLINE_PATH.read_text())
    record.update(fields)
    HEADLINE_PATH.write_text(json.dumps(record, indent=2) + "\n")
    return record


def environment_fields() -> dict:
    """The measurement environment every headline record must carry."""
    info = kernel_info()
    return {
        "cpus": os.cpu_count(),
        "kernel": info["requested"],
        "native_available": info["available"],
        "compiler": info["compiler"],
    }


@pytest.fixture()
def emit():
    """Print a result table and persist it under benchmarks/results/."""

    def _emit(result: ExperimentResult) -> ExperimentResult:
        text = render_table(result)
        print()
        print(text)
        save_result(result, RESULTS_DIR)
        return result

    return _emit


def run_once(benchmark, func, **kwargs):
    """Benchmark a whole-figure regeneration exactly once.

    Figure regenerations are minutes-long at full scale; pedantic mode
    with a single round reports wall time without re-running.
    """
    return benchmark.pedantic(func, kwargs=kwargs, rounds=1, iterations=1)

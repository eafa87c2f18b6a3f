"""The sweep-execution engine: serial or multi-process plan execution.

``run_plan`` executes an ordered list of
:class:`~repro.parallel.plan.SweepCell`\\ s and returns one
:class:`~repro.parallel.plan.CellResult` per cell, **in plan order**,
under a hard contract: the assembled results are bit-identical whether
the plan ran inline (``jobs=1``, the default) or across a
``ProcessPoolExecutor``.  The contract holds because

* every cell is evaluated by the same code
  (:func:`repro.parallel.evaluate.evaluate_cell`) against a fresh
  collector built from the cell's spec — identical params, identical
  seeds, identical integer/float arithmetic;
* a worker evaluates the parent's own base traces, generated exactly
  as the serial path generates them;
* results are keyed by plan index and assembled in plan order, never
  in completion order.

Traces reach workers through the pool initializer, never per cell: the
parent generates each distinct base trace of the plan once
(deduplicated by :meth:`~repro.parallel.plan.WorkloadRef.base_key`)
and passes the dict as the initializer's argument.  Forked workers
inherit it without a copy; on a platform that can only spawn, each
worker unpickles it once.  Cells themselves cross the pipe as
descriptors.

The worker count comes from the ``jobs=`` argument, else the
``REPRO_JOBS`` environment variable, else 1 — serial remains the
default, so tier-1 behavior is unchanged.  ``jobs=0`` (or
``REPRO_JOBS=0``) means "one worker per CPU".
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Sequence

import multiprocessing as mp

from repro.parallel.evaluate import WorkloadStore, evaluate_cell, generate_base_trace
from repro.parallel.plan import CellResult, SweepCell

#: Environment variable selecting the default worker count (default 1).
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the worker count: argument, else ``REPRO_JOBS``, else 1.

    ``0`` or a negative count means "one worker per available CPU".
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            raise ValueError(f"{JOBS_ENV}={raw!r} is not an integer") from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# Worker-side state
# ----------------------------------------------------------------------
_WORKER_STORE: WorkloadStore | None = None


def _init_worker(traces: dict) -> None:
    """Pool initializer: one WorkloadStore per worker process, over the
    parent's base traces."""
    global _WORKER_STORE
    _WORKER_STORE = WorkloadStore(traces=traces)


def _execute_in_worker(index: int, cell: SweepCell) -> CellResult:
    """Top-level (picklable) worker entry point."""
    assert _WORKER_STORE is not None, "worker pool initializer did not run"
    return evaluate_cell(cell, _WORKER_STORE, index=index)


def _mp_context():
    """Prefer fork (cheap, inherits loaded numpy); fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# Plan execution
# ----------------------------------------------------------------------
def run_plan(cells: Sequence[SweepCell], jobs: int | None = None) -> list[CellResult]:
    """Execute a sweep plan serially or across a process pool.

    Args:
        cells: the plan, in output order.
        jobs: worker processes (see :func:`resolve_jobs`); 1 executes
            inline with no pool and no extra processes, generating each
            trace where a cell first needs it.

    Returns:
        One :class:`CellResult` per cell, in plan order — bit-identical
        at any job count.

    Raises:
        The original exception of the first failing cell (re-raised in
        the caller's process); remaining queued cells are cancelled, so
        a crashing cell never hangs the pool.
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(cells) <= 1:
        store = WorkloadStore()
        return [evaluate_cell(cell, store, index=i) for i, cell in enumerate(cells)]

    traces = {}
    for cell in cells:
        key = cell.workload.base_key()
        if key not in traces:
            traces[key] = generate_base_trace(cell.workload)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(cells)),
        mp_context=_mp_context(),
        initializer=_init_worker,
        initargs=(traces,),
    ) as pool:
        futures = [
            pool.submit(_execute_in_worker, i, cell)
            for i, cell in enumerate(cells)
        ]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            pool.shutdown(wait=True, cancel_futures=True)
            raise


def merge_meters(results: Iterable[CellResult]) -> dict[str, int]:
    """Sum per-cell meter totals into plan totals.

    The merge is *exact*, not approximate: every cell owns a fresh
    collector whose counters are plain integers, so the plan total is
    an order-independent integer sum — the same number the serial run
    would report.
    """
    totals = {"packets": 0, "hashes": 0, "reads": 0, "writes": 0}
    for result in results:
        for field in totals:
            totals[field] += result.meter[field]
    return totals

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
* workloads are rebuilt from descriptors, and the on-disk trace-array
  round trip (:mod:`repro.traces.io`) is exact — same keys, same
  order, same timestamps — so a worker's workload equals the parent's;
* results are keyed by plan index and assembled in plan order, never
  in completion order.

Worker processes never receive traces over the pipe: the parent
materializes each distinct base trace into the trace cache once
(generation is vectorized and cheap relative to collection) and parks
it in one shared-memory segment that workers attach zero-copy, so an
N-way fan-out does not pay N× trace construction.  A trace whose
segment cannot be created (``OSError``) stays on the disk path:
workers memory-map its arrays from the cache instead.

The worker count comes from the ``jobs=`` argument, else the
``REPRO_JOBS`` environment variable, else 1 — serial remains the
default, so tier-1 behavior is unchanged.  ``jobs=0`` (or
``REPRO_JOBS=0``) means "one worker per CPU".
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable, Sequence

import multiprocessing as mp

from repro.parallel.evaluate import WorkloadStore, evaluate_cell
from repro.parallel.plan import CellResult, SweepCell, WorkloadRef

#: Environment variable selecting the default worker count (default 1).
JOBS_ENV = "REPRO_JOBS"

#: Environment variable overriding the on-disk trace cache location.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"


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


def default_trace_root() -> Path:
    """The on-disk trace cache: ``REPRO_TRACE_CACHE`` or a tmpdir."""
    env = os.environ.get(TRACE_CACHE_ENV, "").strip()
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / f"repro-trace-cache-{os.getuid()}"


def materialize_refs(
    cells: Iterable[SweepCell], trace_root: str | Path | None = None
) -> Path:
    """Ensure every distinct base trace in a plan exists on disk.

    Called by the engine before fanning out (and by benchmarks to
    pre-warm the cache outside the timed region).  Generation happens
    at most once per distinct base key; already-cached traces cost one
    ``meta.json`` stat.

    Returns:
        The trace-cache root the workers should read from.
    """
    from repro.traces.io import save_trace_arrays
    from repro.traces.profiles import PROFILES

    root = Path(trace_root) if trace_root is not None else default_trace_root()
    seen: set[tuple] = set()
    for cell in cells:
        ref = cell.workload
        if ref.shm is not None:
            # Already in shared memory.
            continue
        key = ref.base_key()
        if key in seen:
            continue
        seen.add(key)
        dest = root / ref.cache_token()
        if not (dest / "meta.json").exists():
            trace = PROFILES[ref.profile].generate(
                n_flows=ref.generated_flows,
                seed=ref.seed,
                force_max=ref.force_max,
            )
            save_trace_arrays(trace, dest)
    return root


def share_plan_traces(
    cells: Sequence[SweepCell], trace_root: Path
) -> tuple[list[SweepCell], list]:
    """Rewrite profile-backed refs onto shared-memory trace segments.

    Each distinct base trace (already materialized on disk by
    :func:`materialize_refs`) is copied into one owned segment via
    :func:`repro.shm.share_trace`; every cell naming it gets a
    ``shm``-backed :class:`~repro.parallel.plan.WorkloadRef` carrying
    the original ``n_flows``/``base_flows``/``seed``, so trial
    subsetting in the worker stays exactly what the profile ref would
    have done.  Cells whose base trace cannot be shared (e.g. the
    segment would not fit) keep their original ref — the disk path
    still works.

    Returns:
        ``(cells, segments)`` — the rewritten plan plus the owned
        segments, which the caller must keep alive until every worker
        is done and then unlink.
    """
    from dataclasses import replace

    from repro.shm import share_trace
    from repro.traces.io import load_trace_arrays

    shared: dict[tuple, tuple | None] = {}
    segments: list = []
    rewritten: list[SweepCell] = []
    for cell in cells:
        ref = cell.workload
        if ref.profile is None:
            rewritten.append(cell)
            continue
        key = ref.base_key()
        if key not in shared:
            try:
                trace = load_trace_arrays(trace_root / ref.cache_token())
                shm_ref, segment = share_trace(trace, label="plan-trace")
            except OSError:
                shared[key] = None
            else:
                shared[key] = tuple(shm_ref)
                segments.append(segment)
        shm_ref = shared[key]
        if shm_ref is None:
            rewritten.append(cell)
        else:
            rewritten.append(
                replace(
                    cell,
                    workload=WorkloadRef(
                        shm=shm_ref,
                        n_flows=ref.n_flows,
                        base_flows=ref.base_flows,
                        seed=ref.seed,
                    ),
                )
            )
    return rewritten, segments


# ----------------------------------------------------------------------
# Worker-side state
# ----------------------------------------------------------------------
_WORKER_STORE: WorkloadStore | None = None


def _init_worker(trace_root: str) -> None:
    """Pool initializer: one WorkloadStore per worker process."""
    global _WORKER_STORE
    _WORKER_STORE = WorkloadStore(trace_root=trace_root)


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
def run_plan(
    cells: Sequence[SweepCell],
    jobs: int | None = None,
    trace_root: str | Path | None = None,
) -> list[CellResult]:
    """Execute a sweep plan serially or across a process pool.

    Args:
        cells: the plan, in output order.
        jobs: worker processes (see :func:`resolve_jobs`); 1 executes
            inline with no pool, no disk, and no extra processes.
        trace_root: trace-cache directory for parallel runs (default:
            :func:`default_trace_root`).

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

    root = materialize_refs(cells, trace_root)
    cells, segments = share_plan_traces(cells, root)
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)),
            mp_context=_mp_context(),
            initializer=_init_worker,
            initargs=(str(root),),
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
    finally:
        for segment in segments:
            segment.unlink()


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

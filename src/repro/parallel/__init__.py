"""Parallel sweep execution: figure grids as explicit plans of cells.

The paper's evaluation is a grid — algorithms × traces × flow-count and
memory sweeps — whose cells are mutually independent.  This package
turns each grid into data (:class:`SweepCell` over a
:class:`WorkloadRef`) and executes it either inline or across a process
pool (:func:`run_plan`), with a hard bit-identity contract between the
two: same specs, same seeds, same rows, same order.

Quickstart::

    from repro.parallel import SweepCell, WorkloadRef, run_plan

    ref = WorkloadRef(profile="caida", n_flows=20_000, seed=1)
    cells = [
        SweepCell(workload=ref, spec_or_kind=kind, memory_bytes=1 << 20,
                  seed=0, metrics=("fsc", "size_are"))
        for kind in ("hashflow", "hashpipe", "elastic", "flowradar")
    ]
    results = run_plan(cells, jobs=4)       # or REPRO_JOBS=4 in the env

Serial execution (``jobs=1``) is the default and exactly the
pre-engine behavior.  A parallel plan's parent generates each distinct
base trace once, and its workers inherit those traces through the pool
initializer; see DESIGN.md §6 for the contract.
"""

from repro.parallel.engine import JOBS_ENV, merge_meters, resolve_jobs, run_plan
from repro.parallel.evaluate import CellWorkload, WorkloadStore, evaluate_cell
from repro.parallel.plan import CellResult, SweepCell, WorkloadRef

__all__ = [
    "CellResult",
    "CellWorkload",
    "JOBS_ENV",
    "SweepCell",
    "WorkloadRef",
    "WorkloadStore",
    "evaluate_cell",
    "merge_meters",
    "resolve_jobs",
    "run_plan",
]

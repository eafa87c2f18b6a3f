"""Cell evaluation: materialize a workload, feed a collector, measure.

This is the code that runs *inside* a sweep worker (or inline, for
serial plans).  It owns two caches that make multi-cell plans cheap:

* a per-process **trace cache** — a parallel plan's workers are given
  the parent's base traces (:func:`repro.parallel.engine.run_plan`);
  any other base trace is generated from its profile, once per
  process;
* a per-process **workload cache** — the materialized
  :class:`~repro.experiments.runner.Workload` (packet ``KeyBatch``,
  truth vectors) is shared by every cell that names the same
  :class:`~repro.parallel.plan.WorkloadRef`, so the paper's
  feed-every-algorithm-the-same-stream structure costs one
  materialization per process, not one per cell.

Imports of the experiment layer happen lazily inside functions:
``repro.parallel`` is imported *by* ``repro.experiments.figures``, so a
module-level import of ``repro.experiments.runner`` would re-enter the
``repro.experiments`` package mid-initialization.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Mapping

from repro.parallel.plan import CellResult, SweepCell, WorkloadRef
from repro.specs import build
from repro.traces.profiles import PROFILES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.trace import Trace

#: Metrics that require a fed collector.
COLLECTOR_METRICS = frozenset(
    {
        "fsc",
        "size_are",
        "cardinality_re",
        "records",
        "accurate_records",
        "hh_sweep",
    }
)

#: Metrics evaluated against the workload (or a deployment) directly.
PLAN_METRICS = frozenset({"stats", "netwide_redundant"})

_ZERO_METER = {"packets": 0, "hashes": 0, "reads": 0, "writes": 0}


class CellWorkload:
    """A materialized workload with lazily-built evaluation vectors.

    Cells that only need the raw trace (Table I statistics, netwide
    deployments) never pay for the full
    :class:`~repro.experiments.runner.Workload` construction (packet
    key list, 64-bit halves, truth vectors); cells that do share one
    instance per process.
    """

    __slots__ = ("trace", "_workload", "_batch")

    def __init__(self, trace: "Trace"):
        self.trace = trace
        self._workload = None
        self._batch = None

    @property
    def workload(self):
        if self._workload is None:
            from repro.experiments.runner import Workload

            self._workload = Workload(self.trace)
        return self._workload

    @property
    def batch(self):
        """The packet stream as a :class:`KeyBatch` (shared, cached)."""
        if self._workload is not None:
            return self._workload.batch
        if self._batch is None:
            self._batch = self.trace.key_batch()
        return self._batch


def generate_base_trace(ref: WorkloadRef) -> "Trace":
    """Generate a ref's base trace (before subsetting) from its profile."""
    return PROFILES[ref.profile].generate(
        n_flows=ref.generated_flows, seed=ref.seed, force_max=ref.force_max
    )


class WorkloadStore:
    """Per-process cache of base traces and materialized workloads.

    Both caches are small LRUs (not unbounded maps): plans visit cells
    grouped by workload, so retaining more than the couple most recent
    workloads would only pin dead multi-hundred-MB key lists for the
    rest of the plan — the pre-engine serial loops rebound one workload
    at a time, and peak memory must not regress relative to them.

    Args:
        traces: base traces generated ahead, keyed by
            :meth:`WorkloadRef.base_key` (a parallel plan's workers get
            the parent's).  They are served first and held for the
            store's lifetime, outside the LRU; any other base trace is
            generated in-process.
        max_cached: materialized workloads (and generated base traces)
            retained per process.
    """

    def __init__(
        self, traces: Mapping[tuple, "Trace"] | None = None, max_cached: int = 2
    ):
        self._given = {} if traces is None else traces
        self.max_cached = max(1, max_cached)
        self._traces: OrderedDict[tuple, "Trace"] = OrderedDict()
        self._workloads: OrderedDict[WorkloadRef, CellWorkload] = OrderedDict()

    def _remember(self, cache: OrderedDict, key, value) -> None:
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > self.max_cached:
            cache.popitem(last=False)

    def base_trace(self, ref: WorkloadRef) -> "Trace":
        """The ref's base trace (before subsetting), cached."""
        key = ref.base_key()
        if key in self._given:
            return self._given[key]
        trace = self._traces.get(key)
        if trace is None:
            trace = generate_base_trace(ref)
        self._remember(self._traces, key, trace)
        return trace

    def get(self, ref: WorkloadRef) -> CellWorkload:
        """The fully materialized workload for a ref, cached."""
        cw = self._workloads.get(ref)
        if cw is None:
            trace = self.base_trace(ref)
            if ref.generated_flows > ref.n_flows:
                trace = trace.subset_flows(ref.n_flows, seed=ref.seed + 1)
            cw = CellWorkload(trace)
            self._remember(self._workloads, ref, cw)
        else:
            self._workloads.move_to_end(ref)
        return cw


def _meter_totals(collector) -> dict[str, int]:
    meter = collector.meter
    return {
        "packets": meter.packets,
        "hashes": meter.hashes,
        "reads": meter.reads,
        "writes": meter.writes,
    }


def _eval_netwide_redundant(cell: SweepCell, cw: CellWorkload) -> dict:
    """Run a redundant (path-based) network-wide deployment.

    The cell's spec describes the per-switch collector prototype;
    ``params`` carries the fabric shape and the router seed.
    """
    from repro.netwide.deployment import NetworkDeployment
    from repro.netwide.topology import FlowRouter, fat_tree_core

    params = cell.params
    router = FlowRouter(
        fat_tree_core(params.get("k_edge", 4), params.get("k_core", 2)),
        seed=params.get("router_seed", 0),
    )
    deployment = NetworkDeployment(router, cell.spec_or_kind)
    report = deployment.run(cw.trace)
    truth = cw.trace.true_sizes()
    return {
        "switches": len(report.per_switch_records),
        "fsc": report.coverage(set(truth)),
        "records": len(report.merged_records),
    }


def evaluate_cell(cell: SweepCell, store: WorkloadStore, index: int = 0) -> CellResult:
    """Execute one cell against a workload store.

    This is the *only* execution path — serial plans run it inline,
    parallel plans run it inside worker processes — so equal cells
    always produce equal results regardless of where they execute.

    Raises:
        ValueError: for an unknown metric name.
    """
    from repro.analysis.heavy_hitters import threshold_sweep
    from repro.analysis.metrics import flow_set_coverage, relative_error

    cw = store.get(cell.workload)
    collector = None
    needs_collector = any(m in COLLECTOR_METRICS for m in cell.metrics)
    if needs_collector:
        if cell.spec_or_kind is None:
            raise ValueError(f"cell {cell.label!r} has metrics that need a collector")
        collector = build(
            cell.spec_or_kind, memory_bytes=cell.memory_bytes, seed=cell.seed
        )
        # Touching cw.workload first (when any metric needs truth
        # vectors) makes cw.batch come from it, so the stream batch is
        # materialized exactly once per workload per process.
        if any(m != "records" for m in cell.metrics):
            cw.workload
        collector.process_all(cw.batch)

    base: dict = {}
    sweep_rows: list[dict] | None = None
    for metric in cell.metrics:
        if metric == "fsc":
            base["fsc"] = flow_set_coverage(
                collector.records(), cw.workload.true_sizes
            )
        elif metric == "size_are":
            base["size_are"] = cw.workload.size_are(collector)
        elif metric == "cardinality_re":
            base["cardinality_re"] = relative_error(
                collector.estimate_cardinality(), cw.workload.num_flows
            )
        elif metric == "records":
            base["records"] = len(collector.records())
        elif metric == "accurate_records":
            truth = cw.workload.true_sizes
            base["accurate_records"] = sum(
                1 for k, v in collector.records().items() if truth.get(k) == v
            )
        elif metric == "hh_sweep":
            sweep_rows = [
                {
                    "threshold": hh.threshold,
                    "f1": hh.f1,
                    "are": hh.are,
                    "recall": hh.recall,
                    "actual": hh.actual,
                }
                for hh in threshold_sweep(
                    collector,
                    cw.workload.true_sizes,
                    cell.params["thresholds"],
                )
            ]
        elif metric == "stats":
            stats = cw.trace.stats()
            base["flows"] = stats.flows
            base["packets"] = stats.packets
            base["max_flow_size"] = stats.max_flow_size
            base["mean_flow_size"] = stats.mean_flow_size
        elif metric == "netwide_redundant":
            base.update(_eval_netwide_redundant(cell, cw))
        else:
            raise ValueError(f"unknown sweep metric {metric!r}")

    if sweep_rows is None:
        rows: tuple[dict, ...] = (base,)
    else:
        rows = tuple({**base, **sr} for sr in sweep_rows)
    meter = _meter_totals(collector) if collector is not None else dict(_ZERO_METER)
    return CellResult(key=(index, cell.label), rows=rows, meter=meter)

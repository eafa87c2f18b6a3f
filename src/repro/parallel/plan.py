"""Sweep plans: the data model of the parallel execution engine.

A figure/benchmark grid becomes an explicit *plan* — an ordered list of
independent :class:`SweepCell`\\ s.  Each cell is pure data: a workload
descriptor (:class:`WorkloadRef`), an optional collector description (a
registry kind name or a :class:`~repro.specs.CollectorSpec` dict — the
currency PR 3 made JSON-round-trippable), a memory budget, a seed, and
the metric names to evaluate.  Because cells are data, they can be
executed in-process or shipped to a worker process and rebuilt
bit-identically; the engine (:mod:`repro.parallel.engine`) guarantees
that the assembled results are byte-for-byte the same either way.

Workloads are *descriptors*: a :class:`WorkloadRef` names a calibrated
profile, flow count and seed.  A parallel plan's parent generates each
distinct base trace once and its workers inherit it through the pool
initializer (:mod:`repro.parallel.engine`); any other trace is
generated from its profile where it is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.specs import CollectorSpec


@dataclass(frozen=True)
class WorkloadRef:
    """A lightweight, process-portable workload description.

    The trace is the calibrated profile's generation at
    ``max(base_flows, n_flows)`` flows, subset to ``n_flows``, matching
    :func:`repro.experiments.runner.make_workload` exactly.

    Attributes:
        profile: trace profile name
            (:data:`repro.traces.profiles.PROFILES`).
        n_flows: flows in the trial.
        seed: generation seed (the subset seed is ``seed + 1``, as in
            ``make_workload``).
        base_flows: optional larger base-trace size to subset from.
        force_max: pin the largest flow to the profile's Table I max
            (Table I regeneration at paper scale).
    """

    profile: str
    n_flows: int
    seed: int = 0
    base_flows: int | None = None
    force_max: bool = False

    @property
    def generated_flows(self) -> int:
        """Flows in the generated base trace (before subsetting)."""
        if self.base_flows is None:
            return self.n_flows
        return max(self.base_flows, self.n_flows)

    def base_key(self) -> tuple:
        """Identity of the *base trace* this ref materializes from.

        Refs that differ only in their trial subset (``n_flows`` below
        a shared ``base_flows``) share a base key, so the trace is
        generated exactly once per plan.
        """
        return (self.profile, self.generated_flows, self.seed, self.force_max)


def _canonical_spec(spec_or_kind: Any) -> Any:
    """Normalize a cell's collector description to JSON-native data."""
    if spec_or_kind is None or isinstance(spec_or_kind, str):
        return spec_or_kind
    if isinstance(spec_or_kind, CollectorSpec):
        return spec_or_kind.to_dict()
    if isinstance(spec_or_kind, Mapping):
        return CollectorSpec.from_dict(spec_or_kind).to_dict()
    spec = getattr(spec_or_kind, "spec", None)
    if isinstance(spec, CollectorSpec):
        return spec.to_dict()
    raise TypeError(
        f"cannot interpret {spec_or_kind!r} as a collector kind or spec"
    )


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    Attributes:
        workload: what packet stream to feed.
        spec_or_kind: registry kind name, spec dict, or
            :class:`~repro.specs.CollectorSpec` describing the
            collector (normalized to JSON-native data); None for cells
            that only evaluate the workload itself (e.g. Table I
            statistics).
        memory_bytes: optional budget, sized in the worker through the
            kind's registered sizing rule — exactly what
            ``build(kind, memory_bytes=...)`` does in-process.
        seed: optional hash-seed override forwarded to ``build``.
        metrics: metric names evaluated against the fed collector (see
            :mod:`repro.parallel.evaluate` for the vocabulary).
        params: extra metric parameters (e.g. heavy-hitter
            ``thresholds``); must be JSON-native.
        label: optional opaque tag echoed back in the cell's result
            key, for caller-side bookkeeping.
    """

    workload: WorkloadRef
    spec_or_kind: Any = None
    memory_bytes: int | None = None
    seed: int | None = None
    metrics: tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Any = None

    def __post_init__(self):
        object.__setattr__(self, "spec_or_kind", _canonical_spec(self.spec_or_kind))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "params", dict(self.params))
        if self.spec_or_kind is None:
            from repro.parallel.evaluate import COLLECTOR_METRICS

            needy = [m for m in self.metrics if m in COLLECTOR_METRICS]
            if needy:
                raise ValueError(
                    f"metrics {needy} need a collector but the cell has "
                    "no spec_or_kind"
                )


@dataclass(frozen=True)
class CellResult:
    """What comes back from executing one cell.

    Attributes:
        key: ``(plan_index, label)`` — the cell's position in the plan
            plus its caller-provided label.
        rows: evaluated metric rows, one dict per output row (most
            metrics yield one row; sweeping metrics such as
            ``hh_sweep`` yield one per grid point).  Values are
            unrounded; presentation-layer rounding stays with the
            caller so it is applied identically in serial and parallel
            runs.
        meter: the fed collector's cost-meter totals
            (``packets``/``hashes``/``reads``/``writes``), all zero for
            collector-less cells.  Totals are exact under any worker
            assignment: each cell owns a fresh collector, so plan-level
            totals are a sum of independent integer counters.
    """

    key: tuple
    rows: tuple[dict, ...]
    meter: Mapping[str, int]

"""Query planning and execution over a :class:`~repro.flowdb.store.FlowStore`.

A :class:`QuerySpec` is the frozen, JSON-round-trippable description of
one question — *which* operation (top-k / lookup / cardinality), over
*which* vantages, across *which* window range — in the same currency
as every other spec in the repo, so queries can live in config files
and CI assertions.  :func:`execute` resolves it against a store:

1. per vantage, the requested windows are covered by the fewest,
   highest hierarchy nodes (:meth:`FlowStore.plan`) and merged with
   ``sum`` — one vantage's windows are disjoint shares of time;
2. vantages merge with the spec's cross-vantage mode — ``max`` by
   default (several switches sighting the *same* flow, the
   :func:`repro.netwide.merge.merge_max` convention) or ``sum`` for
   genuinely disjoint vantages;
3. the operation runs as a vectorized scan of the merged summary.

A lookup answers one key, so it skips the merges: it reads each
selected window's leaf once — its hit is both the window's series
point and a share of the vantage total — and plans parent nodes only
for windows whose leaf was tiered away; the shares then fold by the
same rules for that one key.

Every answer carries its provenance: which windows per vantage it
covered and which of those were degraded (a fault made their content
incomplete, PR 9) — a number computed over a tainted window says so
instead of pretending.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np

from repro.flowdb.store import FlowStore, StoreError
from repro.flowdb.summary import UNMEASURED, merge_summaries
from repro.specs import SpecError
from repro.stream.records import merge_rows

#: Query operations :func:`execute` understands.
OPS = ("topk", "lookup", "cardinality")

#: Cross-vantage merge modes (see :mod:`repro.netwide.merge`).
MERGE_MODES = ("max", "sum")

_FIELDS = {"op", "k", "key", "vantages", "last", "start", "stop", "merge"}


@dataclass(frozen=True, eq=False)
class QuerySpec:
    """One frozen query: operation × vantage set × window range.

    Attributes:
        op: ``"topk"`` / ``"lookup"`` / ``"cardinality"``.
        k: result size for ``topk``.
        key: packed flow key for ``lookup``.
        vantages: vantage names to cover; empty = every vantage.
        last: answer over the most recent N windows (per vantage).
        start: lowest window index included (with ``stop``; ignored
            when ``last`` is set).
        stop: highest window index included, inclusive.
        merge: cross-vantage merge mode, ``"max"`` or ``"sum"``.
    """

    op: str = "topk"
    k: int = 10
    key: int | None = None
    vantages: tuple = ()
    last: int | None = None
    start: int | None = None
    stop: int | None = None
    merge: str = "max"

    def __post_init__(self):
        if self.op not in OPS:
            raise SpecError(f"unknown query op {self.op!r}; one of {OPS}")
        if self.merge not in MERGE_MODES:
            raise SpecError(
                f"unknown merge mode {self.merge!r}; one of {MERGE_MODES}"
            )
        object.__setattr__(self, "k", int(self.k))
        if self.op == "topk" and self.k <= 0:
            raise SpecError(f"topk needs k >= 1, got {self.k}")
        if self.op == "lookup":
            if self.key is None:
                raise SpecError("lookup needs a flow key")
            object.__setattr__(self, "key", int(self.key))
        object.__setattr__(
            self, "vantages", tuple(str(v) for v in self.vantages)
        )
        for name in ("last", "start", "stop"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, int(value))
        if self.last is not None and self.last <= 0:
            raise SpecError(f"last must be >= 1, got {self.last}")
        if (
            self.start is not None
            and self.stop is not None
            and self.stop < self.start
        ):
            raise SpecError(f"window range [{self.start}, {self.stop}] is empty")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuerySpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "k": self.k,
            "key": self.key,
            "vantages": list(self.vantages),
            "last": self.last,
            "start": self.start,
            "stop": self.stop,
            "merge": self.merge,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuerySpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"not a query spec mapping: {data!r}")
        extra = set(data) - _FIELDS
        if extra:
            raise SpecError(f"unknown query spec fields {sorted(extra)} in {data!r}")
        kwargs = {k: data[k] for k in _FIELDS & set(data)}
        kwargs["vantages"] = tuple(kwargs.get("vantages", ()))
        return cls(**kwargs)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "QuerySpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"invalid query spec JSON: {exc}") from exc
        return cls.from_dict(data)

    def over(self, **overrides: Any) -> "QuerySpec":
        """A new spec with some fields replaced."""
        return replace(self, **overrides)


def _select_windows(store: FlowStore, vantage: str, spec: QuerySpec) -> list[int]:
    """The vantage's existing windows the spec's range selects."""
    existing = store.leaf_windows(vantage)
    if spec.last is not None:
        return existing[-spec.last:]
    lo = spec.start if spec.start is not None else (existing[0] if existing else 0)
    hi = spec.stop if spec.stop is not None else (existing[-1] if existing else -1)
    return [w for w in existing if lo <= w <= hi]


def _flow_text(key: int) -> str:
    from repro.flow.key import format_ip, unpack_key

    src_ip, dst_ip, src_port, dst_port, proto = unpack_key(key)
    return f"{format_ip(src_ip)}:{src_port}-{format_ip(dst_ip)}:{dst_port}/{proto}"


def _fold(hits: list[tuple[int, int]], mode: str) -> tuple[int, int] | None:
    """One key's ``(packets, octets)`` shares folded by the one column
    merge (``mode`` ``sum``/``max``, an :data:`UNMEASURED` share
    poisoning the octets); None without shares."""
    if not hits:
        return None
    packets, octets = np.array(hits, dtype=np.int64).T
    one_key = np.zeros(len(hits), dtype=np.uint64)
    _, _, packets, octets, _, _ = merge_rows(one_key, one_key, packets, octets, mode)
    return int(packets[0]), int(octets[0])


def _lookup(store: FlowStore, vantage: str, windows: list[int], key: int):
    """One vantage's share of a lookup, reading each selected leaf once.

    A leaf's hit is its window's series point and a share of the
    vantage total.  When leaves were tiered away, the windows are
    planned as :func:`execute` plans them, and each planned parent
    holding a missing leaf's window answers for its whole span (its
    present leaves still give the series); a parent whose leaves are
    all present is not read.

    Returns:
        ``(hit, series, degraded, read)``: the vantage's folded
        ``(packets, octets)`` or None, the per-window series, the
        degraded windows of every node read, and ``(level, start)`` of
        every node read.
    """
    present = [w for w in windows if store.has_node(vantage, 0, w)]
    planned = []
    if len(present) < len(windows):
        have = set(present)
        planned = [
            ref
            for ref in store.plan(vantage, windows)
            if not have.issuperset(ref.windows)
        ]
    spanned = {w for ref in planned for w in ref.windows}
    shares, series, degraded = [], [], set()
    for window in present:
        leaf = store.load_node(vantage, 0, window)
        degraded.update(leaf.degraded_windows)
        hit = leaf.lookup(key)
        if hit is not None:
            series.append({"window": window, "packets": hit[0]})
            if window not in spanned:
                shares.append(hit)
    for ref in planned:
        node = store.load_node(vantage, ref.level, ref.start)
        degraded.update(node.degraded_windows)
        hit = node.lookup(key)
        if hit is not None:
            shares.append(hit)
    read = [(0, w) for w in present] + [(ref.level, ref.start) for ref in planned]
    return _fold(shares, "sum"), series, degraded, read


def execute(store: FlowStore, spec: QuerySpec) -> dict[str, Any]:
    """Run one query against a store; returns a JSON-native result.

    Every result dict carries ``op``, ``merge``, ``vantages`` (name →
    ``{"windows": [...], "degraded_windows": [...], "nodes": N,
    "levels": [...]}``, where ``nodes``/``levels`` count the store
    nodes the query read) and ``degraded`` (True when any covered
    window was tainted).  Per-op payload:

    * ``topk`` — ``results``: ``[{"key", "flow", "packets"}, ...]``,
      descending packets, ties broken by ascending key (the exact
      ground-truth order tests replay offline).
    * ``lookup`` — total ``packets``/``octets`` for the key, the
      per-vantage split, and a per-window ``series`` drill-down for
      every selected window whose leaf is still stored.
    * ``cardinality`` — distinct flow count of the merged summary.

    Raises:
        StoreError: unknown vantages or uncoverable windows.
    """
    vantages = list(spec.vantages) or store.vantages()
    if not vantages:
        raise StoreError(f"store at {store.root} holds no vantages")
    unknown = [v for v in vantages if v not in store.vantages()]
    if unknown:
        raise StoreError(
            f"unknown vantages {unknown}; store holds {store.vantages()}"
        )

    per_vantage: dict[str, Any] = {}
    provenance: dict[str, Any] = {}
    for vantage in vantages:
        windows = _select_windows(store, vantage, spec)
        if spec.op == "lookup":
            per_vantage[vantage] = _lookup(store, vantage, windows, spec.key)
            _, _, degraded, read = per_vantage[vantage]
        else:
            refs = store.plan(vantage, windows)
            per_vantage[vantage] = merge_summaries(
                [store.load_node(vantage, ref.level, ref.start) for ref in refs],
                mode="sum",
            )
            degraded = per_vantage[vantage].degraded_windows
            read = [(ref.level, ref.start) for ref in refs]
        provenance[vantage] = {
            "windows": windows,
            "degraded_windows": sorted(degraded),
            "nodes": len(read),
            "levels": sorted({level for level, _ in read}),
        }

    result: dict[str, Any] = {
        "op": spec.op,
        "merge": spec.merge,
        "vantages": provenance,
        "degraded": any(p["degraded_windows"] for p in provenance.values()),
    }
    if spec.op == "lookup":
        hit = _fold(
            [hit for hit, *_ in per_vantage.values() if hit is not None], spec.merge
        )
        result["key"] = spec.key
        result["flow"] = _flow_text(spec.key)
        result["found"] = hit is not None
        result["packets"] = hit[0] if hit else 0
        result["octets"] = (
            hit[1] if hit is not None and hit[1] != UNMEASURED else None
        )
        result["by_vantage"] = {
            vantage: {"packets": hit[0] if hit else 0, "series": series}
            for vantage, (hit, series, _, _) in per_vantage.items()
        }
        return result

    merged = merge_summaries(list(per_vantage.values()), mode=spec.merge)
    if spec.op == "topk":
        result["results"] = [
            {"key": key, "flow": _flow_text(key), "packets": packets}
            for key, packets in merged.top_k(spec.k)
        ]
    else:  # cardinality
        result["flows"] = merged.cardinality()
        result["by_vantage"] = {
            vantage: per_vantage[vantage].cardinality() for vantage in vantages
        }
    return result

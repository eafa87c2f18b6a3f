"""Common interface for all flow-record collectors.

Every algorithm evaluated in the paper (HashFlow, HashPipe,
ElasticSketch, FlowRadar) plus the auxiliary baselines (exact NetFlow,
sampled NetFlow, Space-Saving) implements :class:`FlowCollector`, so the
experiment harness and the switch simulator can treat them uniformly.

A shared :class:`CostMeter` records hash operations and memory accesses
per packet; Fig. 11(b)/(c) of the paper are regenerated directly from
these counters rather than estimated.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Mapping

import numpy as np

from repro.flow.batch import DEFAULT_CHUNK_SIZE, KeyBatch, iter_key_chunks
from repro.hashing.mixers import keys_from_halves, split_keys
from repro.specs.spec import CollectorSpec, SpecError


def column_records(lo: np.ndarray, hi: np.ndarray, values: np.ndarray) -> dict:
    """``{packed key: value}`` over key-half columns, in row order: the
    dict view of :meth:`FlowCollector.record_columns`."""
    return dict(zip(keys_from_halves(lo, hi), values.tolist()))


def gather_estimates(records: Mapping[int, int], keys, scale: int = 1) -> np.ndarray:
    """Batched point queries against a ``{flow: count}`` mapping.

    This is the shared *dict-gather* path of the batch-query engine:
    any collector whose scalar :meth:`FlowCollector.query` is a plain
    dictionary lookup (exact, sampled, Space-Saving, cuckoo, FlowRadar
    decode, network-wide merges) answers a whole batch with one pass of
    C-level ``dict.get`` calls instead of one Python call per key.

    Args:
        records: the estimate table (``query(k) == records.get(k, 0) * scale``).
        keys: a :class:`~repro.flow.batch.KeyBatch` or sequence of keys.
        scale: multiplier applied to every hit (e.g. the sampling period
            of sampled NetFlow); misses stay 0.

    Returns:
        ``np.int64`` array, bit-identical to the scalar query per key.
    """
    if isinstance(keys, KeyBatch):
        keys = keys.keys
    get = records.get
    if scale == 1:
        return np.fromiter((get(k, 0) for k in keys), np.int64, count=len(keys))
    return np.fromiter((get(k, 0) * scale for k in keys), np.int64, count=len(keys))


class CostMeter:
    """Counts hash operations and memory reads/writes.

    Collectors increment the public attributes inline on their hot
    paths; the meter normalizes them per packet for reporting.

    Attributes:
        hashes: number of hash computations.
        reads: number of cell/field-group reads.
        writes: number of cell/field-group writes.
        packets: number of packets processed.
    """

    __slots__ = ("hashes", "reads", "writes", "packets")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Zero all counters."""
        self.hashes = 0
        self.reads = 0
        self.writes = 0
        self.packets = 0

    def add(
        self, packets: int = 0, hashes: int = 0, reads: int = 0, writes: int = 0
    ) -> None:
        """Add batch-aggregated costs in one call.

        Batched update paths accumulate counts in locals inside their
        hot loop and settle them here once per batch, instead of
        touching four attributes per packet.
        """
        self.packets += packets
        self.hashes += hashes
        self.reads += reads
        self.writes += writes

    @property
    def memory_accesses(self) -> int:
        """Total memory accesses (reads + writes)."""
        return self.reads + self.writes

    def per_packet(self) -> dict[str, float]:
        """Average hash / read / write / access counts per packet.

        A meter that has never been fed has no per-packet rates: every
        value is NaN (clamping to ``packets=1`` here used to report a
        misleading 0.0 for a dead collector — callers that want a
        number for an idle stage must check ``packets`` themselves, as
        the switch report does).
        """
        n = self.packets
        if n == 0:
            return {k: math.nan for k in ("hashes", "reads", "writes", "accesses")}
        return {
            "hashes": self.hashes / n,
            "reads": self.reads / n,
            "writes": self.writes / n,
            "accesses": self.memory_accesses / n,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pp = self.per_packet()
        return (
            f"CostMeter(packets={self.packets}, hashes/pkt={pp['hashes']:.2f}, "
            f"accesses/pkt={pp['accesses']:.2f})"
        )


class FlowCollector(ABC):
    """Abstract flow-record collector.

    Subclasses implement the per-packet update (:meth:`process`), the
    reported record set (:meth:`records`) and the point-query
    (:meth:`query`).  Cardinality estimation and heavy-hitter extraction
    have sensible defaults but are overridden where the paper prescribes
    a specific estimator (e.g. linear counting).
    """

    #: Display name used in reports and figures.
    name: str = "collector"

    #: Registry kind (set by :func:`repro.specs.register`); None means
    #: the collector type is not spec-constructible.
    kind: str | None = None

    def __init__(self):
        self.meter = CostMeter()

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------
    @abstractmethod
    def process(self, key: int) -> None:
        """Process one packet belonging to flow ``key``."""

    def process_batch(self, keys) -> None:
        """Process a batch of packet keys in arrival order.

        The generic fallback simply loops over :meth:`process`;
        collectors with a vectorized update path (HashFlow, HashPipe)
        override this to precompute all hash indices for the batch at
        once.  Overrides must be bit-identical to the scalar path:
        same records, same query answers, same meter totals.

        Args:
            keys: a :class:`~repro.flow.batch.KeyBatch` or any sequence
                of Python-int keys.
        """
        process = self.process
        for key in keys.keys if isinstance(keys, KeyBatch) else keys:
            process(key)

    def process_all(
        self, keys: Iterable[int], chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> int:
        """Feed a packet-key stream; returns the number of packets fed.

        The stream is sliced into chunks and fed through
        :meth:`process_batch`, so collectors with a batched update path
        engage it automatically.  ``np.ndarray`` inputs are converted
        to Python ints once per chunk — iterating an array directly
        would hand ``np.int64`` scalars to the mixers, whose
        arbitrary-precision arithmetic is several times slower than
        built-in ints.
        """
        process_batch = self.process_batch
        n = 0
        for chunk in iter_key_chunks(keys, chunk_size):
            process_batch(chunk)
            n += len(chunk)
        return n

    # ------------------------------------------------------------------
    # Report path
    # ------------------------------------------------------------------
    @abstractmethod
    def records(self) -> dict[int, int]:
        """Flow records the collector can report: ``{flow key: count}``.

        Only flows whose full IDs are recoverable appear here (this is
        the numerator of the paper's Flow Set Coverage metric).
        """

    def record_columns(self):
        """The reported records as columns, for rotation exports.

        Returns:
            ``(lo, hi, packets, octets)``: one row per :meth:`records`
            entry, in its order — ``uint64`` key halves and ``int64``
            packet counts — and the ``int64`` measured byte counts of a
            collector tracking byte volumes, else None.  Table-backed
            collectors (and every byte-tracking one) override this to
            gather from their planes; their :meth:`records` is its
            dict view.
        """
        records = self.records()
        lo, hi = split_keys(list(records))
        packets = np.fromiter(records.values(), np.int64, count=len(records))
        return lo, hi, packets, None

    @abstractmethod
    def query(self, key: int) -> int:
        """Estimated packet count of ``key``; 0 if unknown (paper §IV-A)."""

    def query_batch(self, keys) -> np.ndarray:
        """Estimated packet counts for a whole key batch.

        The generic fallback loops over :meth:`query`; collectors with
        a vectorized read path override this to precompute all hash
        indices for the batch at once (the query-side twin of
        :meth:`process_batch`).  Overrides must be bit-identical to the
        scalar path — ``query_batch(keys)[i] == query(keys[i])`` for
        every key, seen or unseen — and must not touch the cost meter
        (point queries are control-plane reads; the meter models the
        dataplane update cost of paper Fig. 11).

        Args:
            keys: a :class:`~repro.flow.batch.KeyBatch` or any sequence
                of Python-int keys.

        Returns:
            ``np.int64`` array of per-key estimates, in key order.
        """
        if isinstance(keys, KeyBatch):
            keys = keys.keys
        query = self.query
        return np.fromiter((query(k) for k in keys), np.int64, count=len(keys))

    def estimate_cardinality(self) -> float:
        """Estimated number of distinct flows seen.

        Default: the number of reportable records (no compensation for
        dropped flows — the behaviour the paper ascribes to HashPipe).
        """
        return float(len(self.records()))

    def heavy_hitters(self, threshold: int) -> dict[int, int]:
        """Flows reported with more than ``threshold`` packets.

        Contract for overrides: the result must be a plain
        ``estimate > threshold`` filter of a threshold-independent
        estimate map (the paper's definition, §IV-A).
        ``analysis.heavy_hitters.threshold_sweep`` relies on this to
        extract the estimates once per sweep and re-filter per
        threshold; ``tests/test_heavy_hitters_analysis.py`` enforces it
        across the collector matrix.
        """
        return {k: v for k, v in self.records().items() if v > threshold}

    # ------------------------------------------------------------------
    # Lifecycle / accounting
    # ------------------------------------------------------------------
    @abstractmethod
    def reset(self) -> None:
        """Clear all state (including the cost meter)."""

    @property
    @abstractmethod
    def memory_bits(self) -> int:
        """Total memory footprint in bits under the paper's cost model."""

    @property
    def memory_bytes(self) -> float:
        """Memory footprint in bytes."""
        return self.memory_bits / 8.0

    # ------------------------------------------------------------------
    # Spec lifecycle (repro.specs)
    # ------------------------------------------------------------------
    def _record_spec(self, **params) -> None:
        """Record the constructor params that reproduce this instance.

        Registered collectors call this once from ``__init__`` with the
        exact keyword set that :func:`repro.specs.build` would pass;
        :attr:`spec` then round-trips construction without any
        per-class introspection.
        """
        self._spec_params = params

    def spec_params(self) -> dict:
        """Constructor params reproducing this collector (a fresh dict).

        Raises:
            SpecError: if the collector was built outside the registry
                contract (no recorded params).
        """
        params = getattr(self, "_spec_params", None)
        if params is None:
            raise SpecError(
                f"{type(self).__name__} does not record spec params; "
                "it cannot be described by a CollectorSpec"
            )
        return dict(params)

    @property
    def spec(self) -> CollectorSpec:
        """The :class:`~repro.specs.CollectorSpec` describing this
        collector: ``build(collector.spec)`` yields a fresh,
        bit-identically behaving twin.

        Raises:
            SpecError: for unregistered collector types or instances
                built from ad-hoc callables.
        """
        if self.kind is None:
            raise SpecError(
                f"{type(self).__name__} is not a registered collector kind"
            )
        return CollectorSpec(self.kind, self.spec_params())

    def clone(self) -> "FlowCollector":
        """A fresh, identically-configured instance (empty tables)."""
        return self.spec.build()

    def fresh_factory(self) -> Callable[[], "FlowCollector"]:
        """A zero-argument factory producing fresh clones.

        The factory is the spec's bound ``build`` method, so it
        serializes conceptually as the spec itself.
        """
        return self.spec.build

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        try:
            spec = self.spec
        except SpecError:
            return f"{type(self).__name__}(memory={self.memory_bytes:.0f}B)"
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(spec.params.items()))
        return f"{spec.kind}({args})"

"""HashFlow main table: one stage-major layout for both paper variants.

The main table ``M`` stores accurate ``(flow_id, count)`` records.  The
paper (Section III-A) organizes it in one of two ways:

* **multi-hash** — one array of ``n`` buckets probed with ``d``
  independent hash functions ``h_1 ... h_d``;
* **pipelined** — ``d`` sub-tables whose sizes decay geometrically
  (``n_{k+1} = α · n_k``), each with its own hash function.  The paper
  shows this improves utilization by up to ~5.5% at ``α = 0.7``
  (Fig. 2d) and adopts it for the evaluation.

:class:`MainTable` expresses both in one vocabulary: probe stage ``s``
hashes with ``seeds[s]`` into the flat slice ``[offs[s], offs[s] +
sizes[s])`` of one set of planes.  Pipelined stages tile the planes;
multi-hash stages all span them (offset 0, size ``n``).  The C kernels
(``native/csrc/kernels.c``) take the same ``(seed, offset, size)``
triples, so one layout serves every tier.

State is four flat *planes* (:mod:`repro.sketches.planes`): the
104-bit keys split into 64-bit ``k_lo``/``k_hi`` halves, ``counts``,
and optional ``bytes``.  Planes are Python lists on the numpy tier —
the batched walk in :class:`~repro.core.hashflow.HashFlow` indexes
lists faster than numpy arrays (DESIGN §2) — and
``np.uint64``/``np.int64`` arrays on the native tier.  Every method
here works on either.

Probe contract (Algorithm 1): a probe either increments an existing
record, fills an empty bucket, or fails — reporting the *sentinel* (the
colliding bucket with the smallest count) for the record-promotion
strategy.  Probes never evict, so a flow is never split across buckets.
"""

from __future__ import annotations

import numpy as np

from repro.flow.batch import KeyBatch
from repro.flow.key import FLOW_KEY_BITS
from repro.hashing.families import HashFamily
from repro.hashing.mixers import MASK64, mix128, mix128_batch
from repro.sketches.base import CostMeter, column_records
from repro.sketches.planes import cleared, new_plane, occupied

_COUNTER_BITS = 32

#: Probe outcome: the packet was absorbed (inserted or incremented).
ABSORBED = 0
#: Probe outcome: all d buckets collided; sentinel information returned.
MISSED = 1

DEFAULT_DEPTH = 3
DEFAULT_ALPHA = 0.7


def pipeline_sizes(n_cells: int, depth: int, alpha: float) -> list[int]:
    """Split ``n_cells`` into ``depth`` geometrically decaying sub-tables.

    ``n_k = α^{k-1} · n_1`` with ``n_1 = n · (1-α)/(1-α^d)`` (paper
    Section III-B).  Sizes are rounded to integers (each at least 1) and
    the first table absorbs the rounding drift so the total is exact.
    """
    if n_cells < depth:
        raise ValueError(f"need at least {depth} cells for depth {depth}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    first = n_cells * (1 - alpha) / (1 - alpha**depth)
    sizes = [max(1, round(first * alpha**k)) for k in range(depth)]
    sizes[0] += n_cells - sum(sizes)
    if sizes[0] < 1:
        raise ValueError(
            f"cannot build {depth} pipelined tables with alpha={alpha} "
            f"from {n_cells} cells"
        )
    return sizes


class MainTable:
    """The main table over flat stage-major planes.

    Args:
        n_cells: total buckets.
        depth: probe stages ``d`` (paper default 3).
        variant: ``"pipelined"`` (geometric sub-tables) or
            ``"multihash"`` (every stage probes all ``n`` buckets).
        alpha: pipeline weight ``α`` (pipelined variant only).
        seed: hash family seed.
        meter: shared cost meter.
        track_bytes: allocate the ``bytes`` plane (the NetFlow record's
            dOctets field), fed by the ``size`` argument of
            :meth:`probe`.
        arrays: allocate numpy planes (the native tier) instead of
            Python lists.
    """

    def __init__(
        self,
        n_cells: int,
        depth: int = DEFAULT_DEPTH,
        variant: str = "pipelined",
        alpha: float = DEFAULT_ALPHA,
        seed: int = 0,
        meter: CostMeter | None = None,
        track_bytes: bool = False,
        arrays: bool = False,
    ):
        if n_cells <= 0:
            raise ValueError(f"n_cells must be positive, got {n_cells}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if variant == "pipelined":
            self.sizes = pipeline_sizes(n_cells, depth, alpha)
            self._offs = [sum(self.sizes[:s]) for s in range(depth)]
        elif variant == "multihash":
            self.sizes = [n_cells] * depth
            self._offs = [0] * depth
        else:
            raise ValueError(f"unknown variant {variant!r}")
        self.meter = meter if meter is not None else CostMeter()
        self.track_bytes = track_bytes
        self.depth = depth
        self.variant = variant
        self.alpha = alpha if variant == "pipelined" else None
        self._n = n_cells
        self._hashes = HashFamily(depth, master_seed=seed)
        self._seeds = [h.seed for h in self._hashes]
        self._stages = list(zip(self._seeds, self._offs, self.sizes))
        # Kernel-facing copies of the per-stage addressing triples.
        self.seeds_arr = np.array(self._seeds, dtype=np.uint64)
        self.offs_arr = np.array(self._offs, dtype=np.int64)
        self.sizes_arr = np.array(self.sizes, dtype=np.int64)
        self.k_lo = new_plane(n_cells, np.uint64, arrays)
        self.k_hi = new_plane(n_cells, np.uint64, arrays)
        self.counts = new_plane(n_cells, np.int64, arrays)
        self.bytes = new_plane(n_cells, np.int64, arrays) if track_bytes else None

    # ------------------------------------------------------------------
    # Update path: the scalar probe/promote contract
    # ------------------------------------------------------------------
    def probe(self, key: int, size: int = 0) -> tuple[int, int, object]:
        """Probe every stage for ``key``, absorbing the packet if possible.

        Args:
            key: packed flow ID.
            size: packet length in bytes, accumulated when
                ``track_bytes`` is enabled.

        Returns:
            ``(ABSORBED, 0, None)`` if the packet found its record or an
            empty bucket; ``(MISSED, min_count, sentinel)`` otherwise,
            where ``sentinel`` is the flat index of the colliding
            bucket with the smallest count (earliest stage on ties),
            for :meth:`promote`.
        """
        meter = self.meter
        lo = key & MASK64
        hi = key >> 64
        k_lo = self.k_lo
        k_hi = self.k_hi
        counts = self.counts
        mbytes = self.bytes
        min_count = -1
        sentinel = -1
        for seed, off, n in self._stages:
            idx = off + mix128(key, seed) % n
            meter.hashes += 1
            meter.reads += 1
            count = counts[idx]
            if count == 0:
                k_lo[idx] = lo
                k_hi[idx] = hi
                counts[idx] = 1
                if mbytes is not None:
                    mbytes[idx] = size
                meter.writes += 1
                return ABSORBED, 0, None
            if k_lo[idx] == lo and k_hi[idx] == hi:
                counts[idx] = count + 1
                if mbytes is not None:
                    mbytes[idx] += size
                meter.writes += 1
                return ABSORBED, 0, None
            if min_count < 0 or count < min_count:
                min_count = count
                sentinel = idx
        return MISSED, int(min_count), sentinel

    def promote(self, sentinel: int, key: int, count: int, size: int = 0) -> None:
        """Overwrite the sentinel bucket with ``(key, count)``.

        With byte tracking, the promoted record's byte counter restarts
        at ``size`` (earlier bytes were lost to ancillary churn — a
        documented lower bound).
        """
        self.k_lo[sentinel] = key & MASK64
        self.k_hi[sentinel] = key >> 64
        self.counts[sentinel] = count
        if self.bytes is not None:
            self.bytes[sentinel] = size
        self.meter.writes += 1

    def _stage_cells(self, lo: np.ndarray, hi: np.ndarray):
        """Flat probe-cell indices of a key batch, one array per stage."""
        for seed, off, size in self._stages:
            yield (mix128_batch(lo, hi, seed) % np.uint64(size)).astype(np.int64) + off

    def stage_rows(self, lo: np.ndarray, hi: np.ndarray) -> list[list[int]]:
        """Every probe index of a key batch, precomputed for the walk.

        Returns:
            ``d`` lists of ``len(lo)`` flat cell indices; entry
            ``[s][i]`` is the cell the scalar :meth:`probe` of key ``i``
            touches in stage ``s``.
        """
        return [cells.tolist() for cells in self._stage_cells(lo, hi)]

    # ------------------------------------------------------------------
    # Report / control plane
    # ------------------------------------------------------------------
    def _find(self, key: int) -> int:
        """Flat index of the key's first resident record, or -1."""
        lo = key & MASK64
        hi = key >> 64
        counts = self.counts
        for seed, off, n in self._stages:
            idx = off + mix128(key, seed) % n
            if counts[idx] and self.k_lo[idx] == lo and self.k_hi[idx] == hi:
                return idx
        return -1

    def _require_bytes(self) -> None:
        if self.bytes is None:
            raise RuntimeError("byte tracking is disabled for this table")

    def query(self, key: int) -> int:
        """The flow's recorded count, or 0 if absent."""
        idx = self._find(key)
        return 0 if idx < 0 else int(self.counts[idx])

    def byte_query(self, key: int) -> int | None:
        """Measured byte count of the flow's resident record, or None.

        A per-key probe (the byte-side twin of :meth:`query`) so
        expiry-style exporters can read a few flows' byte counts
        without materializing :meth:`byte_records` over the whole
        table.

        Raises:
            RuntimeError: if byte tracking is disabled.
        """
        self._require_bytes()
        idx = self._find(key)
        return None if idx < 0 else int(self.bytes[idx])

    def query_batch(self, batch: KeyBatch) -> np.ndarray:
        """Recorded counts for a whole key batch (``np.int64``).

        Bit-identical to the scalar :meth:`query` per key: a later
        stage only answers keys every earlier stage missed, so the
        first resident match wins even if control-plane evictions ever
        leave a flow resident twice.
        """
        n = len(batch)
        out = np.zeros(n, dtype=np.int64)
        if not n:
            return out
        lo, hi = batch.halves()
        k_lo = np.asarray(self.k_lo, dtype=np.uint64)
        k_hi = np.asarray(self.k_hi, dtype=np.uint64)
        counts = np.asarray(self.counts, dtype=np.int64)
        unresolved = np.ones(n, dtype=bool)
        for idx in self._stage_cells(lo, hi):
            hit = (
                unresolved
                & (counts[idx] > 0)
                & (k_lo[idx] == lo)
                & (k_hi[idx] == hi)
            )
            if hit.any():
                out[hit] = counts[idx[hit]]
                unresolved &= ~hit
                if not unresolved.any():
                    break
        return out

    def record_columns(self):
        """Every occupied cell as columns ``(lo, hi, packets, octets)``.

        Cells come in ascending flat index (stage-major) order on every
        tier; ``octets`` is the ``bytes`` plane's cells, or None
        without byte tracking.  Probes never evict, so each resident
        flow holds one cell.
        """
        counts = self.counts
        return (
            occupied(self.k_lo, counts, np.uint64),
            occupied(self.k_hi, counts, np.uint64),
            occupied(counts, counts, np.int64),
            None if self.bytes is None else occupied(self.bytes, counts, np.int64),
        )

    def records(self) -> dict[int, int]:
        """All resident records."""
        lo, hi, packets, _ = self.record_columns()
        return column_records(lo, hi, packets)

    def byte_records(self) -> dict[int, int]:
        """Per-flow byte counts of all resident records.

        Raises:
            RuntimeError: if byte tracking is disabled.
        """
        self._require_bytes()
        lo, hi, _, octets = self.record_columns()
        return column_records(lo, hi, octets)

    def occupancy(self) -> int:
        """Number of occupied buckets."""
        return int(np.count_nonzero(np.asarray(self.counts, dtype=np.int64)))

    def utilization(self) -> float:
        """Fraction of buckets occupied (the quantity modelled in §III-B)."""
        return self.occupancy() / self._n

    def per_table_utilization(self) -> list[float]:
        """Occupancy fraction of each probe stage's slice (compare the
        pipelined variant with Eq. 4)."""
        counts = np.asarray(self.counts, dtype=np.int64)
        return [
            int(np.count_nonzero(counts[off : off + size])) / size
            for off, size in zip(self._offs, self.sizes)
        ]

    def remove(self, key: int) -> bool:
        """Clear the flow's record if resident (control-plane operation,
        e.g. after a timeout export; not metered).  Returns whether a
        record was removed.  A cleared cell's byte counter is left
        stale: it is invisible while the count is 0 and reseeded on
        insert."""
        idx = self._find(key)
        if idx < 0:
            return False
        self.k_lo[idx] = 0
        self.k_hi[idx] = 0
        self.counts[idx] = 0
        return True

    def reset(self) -> None:
        """Clear all buckets."""
        self.k_lo = cleared(self.k_lo)
        self.k_hi = cleared(self.k_hi)
        self.counts = cleared(self.counts)
        if self.bytes is not None:
            self.bytes = cleared(self.bytes)

    @property
    def n_cells(self) -> int:
        """Total buckets."""
        return self._n

    @property
    def memory_bits(self) -> int:
        """Buckets of (104-bit key, 32-bit counter [, 32-bit bytes])."""
        cell = FLOW_KEY_BITS + _COUNTER_BITS
        if self.track_bytes:
            cell += _COUNTER_BITS
        return self._n * cell

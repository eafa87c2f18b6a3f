"""Count-min sketch (Cormode & Muthukrishnan 2005).

Substrate for the light part of ElasticSketch and a standalone baseline.
Counters may be narrow (8-bit in the paper's ElasticSketch
configuration) and saturate instead of wrapping, as register arrays on a
switch would.
"""

from __future__ import annotations

import numpy as np

from repro.flow.batch import KeyBatch
from repro.hashing.families import HashFamily
from repro.native import resolve_kernel
from repro.sketches.base import CostMeter
from repro.sketches.planes import cleared, new_plane


class CountMinSketch:
    """A count-min sketch with saturating counters.

    State is one row-major plane, ``rows`` (:mod:`repro.sketches.planes`):
    row ``r`` owns cells ``[r·width, (r+1)·width)``.

    Args:
        width: number of counters per row.
        depth: number of rows (independent hash functions).
        counter_bits: counter width in bits, at most 62 (counters live
            in ``int64`` planes); counters saturate at
            ``2**counter_bits - 1``.
        seed: hash family seed.
        conservative: if True, use conservative update (only the minimal
            counters are incremented), which reduces overestimation.
        meter: optional shared :class:`CostMeter` (the embedding
            algorithm's meter); a private one is created otherwise.
        kernel: execution tier — ``"native"``, ``"numpy"``, or None to
            follow ``REPRO_KERNEL``.  Bit-identical either way.
    """

    def __init__(
        self,
        width: int,
        depth: int = 1,
        counter_bits: int = 8,
        seed: int = 0,
        conservative: bool = False,
        meter: CostMeter | None = None,
        kernel: str | None = None,
    ):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        if not 0 < counter_bits <= 62:
            raise ValueError(
                "counter_bits must be in [1, 62] (counters live in int64 "
                f"planes), got {counter_bits}"
            )
        self.width = width
        self.depth = depth
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self.conservative = conservative
        self.seed = seed
        self.meter = meter if meter is not None else CostMeter()
        self._hashes = HashFamily(depth, master_seed=seed)
        self._seeds_arr = np.array([h.seed for h in self._hashes], dtype=np.uint64)
        # Row offsets: row r's cell for key k is offs[r] + h_r(k) % width.
        self._offs = list(range(0, depth * width, width))
        self.kernel, self._native = resolve_kernel(kernel)
        self.rows = new_plane(depth * width, np.int64, self._native is not None)

    def _cells(self, batch: KeyBatch) -> np.ndarray:
        """``(depth, len(batch))`` flat cell indices of a key batch."""
        rows = self._hashes.bucket_matrix(batch, self.width).astype(np.int64)
        return rows + np.array(self._offs, dtype=np.int64)[:, None]

    def add(self, key: int, amount: int = 1) -> None:
        """Add ``amount`` occurrences of ``key``."""
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        if self._native is not None:
            # Batch of one through the kernel: bit-identical counters
            # and meter deltas, one implementation per tier.
            self.add_batch(KeyBatch([key]), amount)
            return
        meter = self.meter
        rows = self.rows
        width = self.width
        max_count = self.max_count
        meter.hashes += self.depth
        meter.reads += self.depth
        if self.conservative:
            cells = [
                off + h.bucket(key, width) for off, h in zip(self._offs, self._hashes)
            ]
            target = min([rows[c] for c in cells]) + amount
            for c in cells:
                if rows[c] < target:
                    rows[c] = min(target, max_count)
                    meter.writes += 1
        else:
            for off, h in zip(self._offs, self._hashes):
                c = off + h.bucket(key, width)
                rows[c] = min(rows[c] + amount, max_count)
            meter.writes += self.depth

    def add_batch(self, keys, amount: int = 1) -> None:
        """Add ``amount`` occurrences of every key in a batch.

        Bit-identical to calling :meth:`add` per key in order (counter
        saturation commutes with equal positive increments), with the
        meter settled once per batch.

        The plain variant collapses each row's updates to one pass over
        the *distinct* cells hit — ``min(c + k·amount, max)`` equals
        ``k`` sequential saturating adds.  The conservative variant
        depends on the evolving row minima, so it keeps a per-packet
        loop over precomputed cells.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        batch = KeyBatch.coerce(keys)
        n = len(batch)
        if n == 0:
            return
        if self._native is not None:
            lo, hi = batch.halves()
            hashes, reads, writes = self._native.countmin_update(
                lo, hi, self._seeds_arr, self.depth, self.width,
                self.max_count, amount, self.conservative, self.rows,
            )
            self.meter.add(hashes=hashes, reads=reads, writes=writes)
            return
        rows = self.rows
        max_count = self.max_count
        depth = self.depth
        if self.conservative:
            writes = 0
            for packet_cells in self._cells(batch).T.tolist():
                target = min([rows[c] for c in packet_cells]) + amount
                for c in packet_cells:
                    if rows[c] < target:
                        rows[c] = target if target < max_count else max_count
                        writes += 1
            self.meter.add(hashes=n * depth, reads=n * depth, writes=writes)
        else:
            for off, h in zip(self._offs, self._hashes):
                uniq, hits = np.unique(
                    h.buckets_batch(batch, self.width), return_counts=True
                )
                for c, k in zip((uniq + np.uint64(off)).tolist(), hits.tolist()):
                    value = rows[c] + k * amount
                    rows[c] = value if value < max_count else max_count
            self.meter.add(hashes=n * depth, reads=n * depth, writes=n * depth)

    def query(self, key: int) -> int:
        """Point query: the minimum counter across rows (never underestimates
        until counters saturate)."""
        if self._native is not None:
            return int(self.query_batch(KeyBatch([key]))[0])
        rows = self.rows
        width = self.width
        return min(
            rows[off + h.bucket(key, width)] for off, h in zip(self._offs, self._hashes)
        )

    def query_batch(self, keys) -> np.ndarray:
        """Batched point queries: the whole sweep is numpy passes.

        The cells of every key in every row come from one vectorized
        mixing pass per row over the batch's 64-bit halves; one gather
        and a minimum over rows answer the batch.  Bit-identical to the
        scalar :meth:`query` per key.
        """
        batch = KeyBatch.coerce(keys)
        if not len(batch):
            return np.zeros(0, dtype=np.int64)
        if self._native is not None:
            lo, hi = batch.halves()
            return self._native.countmin_query(
                lo, hi, self._seeds_arr, self.depth, self.width, self.rows,
            )
        # The numpy tier's plane is a list: fromiter converts it fastest.
        rows = np.fromiter(self.rows, np.int64, count=len(self.rows))
        return rows[self._cells(batch)].min(axis=0)

    def zero_fraction(self) -> float:
        """Fraction of zero counters in the first row.

        Feeds the linear-counting cardinality estimator (paper §IV-A:
        "linear counting is used by ElasticSketch to estimate the number
        of flows in its count-min sketch").
        """
        first = np.asarray(self.rows[: self.width], dtype=np.int64)
        return (self.width - int(np.count_nonzero(first))) / self.width

    def reset(self) -> None:
        """Clear all counters."""
        self.rows = cleared(self.rows)

    @property
    def memory_bits(self) -> int:
        """Sketch footprint: one counter per cell."""
        return self.width * self.depth * self.counter_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountMinSketch(width={self.width}, depth={self.depth}, "
            f"counter_bits={self.counter_bits})"
        )

"""HashFlow ancillary table ``A``.

Stores *summarized* records ``(digest, count)`` for flows that lost all
``d`` main-table probes (paper Algorithm 1, lines 14-23).  A short
digest of the flow ID (8 bits by default) replaces the full key to save
memory; the counter is likewise narrow (8 bits) and saturates.

Update semantics for a packet whose flow digests to ``digest`` at bucket
``idx``, with ``min_count`` the sentinel count from the failed main
probe:

* empty bucket or digest mismatch → *replace*: the existing summarized
  flow is discarded and the bucket becomes ``(digest, 1)``;
* digest match and ``count < min_count`` → *increment*;
* digest match and ``count >= min_count`` → *promote*: the flow has
  grown at least as large as the smallest colliding main-table record,
  so it should displace that sentinel.

State is two flat planes, ``digests`` and ``counts``, with the same
plane types as the main table (:mod:`repro.sketches.planes`): Python
lists on the numpy tier, numpy arrays on the native tier or when
shared.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.digest import DigestFunction
from repro.hashing.families import HashFunction
from repro.hashing.mixers import mix128, mix128_batch
from repro.sketches.base import CostMeter
from repro.sketches.planes import cleared, new_plane
from repro.sketches.linear_counting import linear_counting_estimate

DEFAULT_COUNTER_BITS = 8

#: Outcome: the packet was recorded in the ancillary table.
STORED = 0
#: Outcome: the record grew past the sentinel and must be promoted.
PROMOTE = 1


class AncillaryTable:
    """The ancillary (digest, count) table of HashFlow.

    Args:
        n_cells: number of buckets.
        index_hash: the hash ``g1`` mapping flow IDs to buckets.
        digest: digest function (``h1 mod 2**w`` in the paper).
        counter_bits: counter width; counters saturate at
            ``2**counter_bits - 1`` (8 bits in the paper's setup).
        meter: shared cost meter.
        arrays: allocate numpy planes (the native tier) instead of
            Python lists.

    Cells are addressed with the hashes' prebound ``mix128`` seeds —
    here, in the batched walk and in the C kernel alike — so both must
    be plain :class:`HashFunction` / :class:`DigestFunction` objects.
    """

    def __init__(
        self,
        n_cells: int,
        index_hash: HashFunction,
        digest: DigestFunction,
        counter_bits: int = DEFAULT_COUNTER_BITS,
        meter: CostMeter | None = None,
        arrays: bool = False,
    ):
        if n_cells <= 0:
            raise ValueError(f"n_cells must be positive, got {n_cells}")
        if counter_bits <= 0:
            raise ValueError(f"counter_bits must be positive, got {counter_bits}")
        if not (
            type(index_hash) is HashFunction
            and type(digest) is DigestFunction
            and type(digest.base) is HashFunction
        ):
            raise TypeError(
                "the ancillary table needs plain HashFunction/DigestFunction "
                "hashes (cells are addressed by their mix128 seeds)"
            )
        self.n_cells = n_cells
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self.index_hash = index_hash
        self.digest = digest
        self.meter = meter if meter is not None else CostMeter()
        self._index_seed = index_hash.seed
        self._digest_seed = digest.base.seed
        self._digest_mask = (1 << digest.bits) - 1
        self.digests = new_plane(n_cells, np.uint64, arrays)
        self.counts = new_plane(n_cells, np.int64, arrays)

    def _cell(self, key: int) -> tuple[int, int]:
        """The key's bucket index and digest."""
        return (
            mix128(key, self._index_seed) % self.n_cells,
            mix128(key, self._digest_seed) & self._digest_mask,
        )

    def offer(self, key: int, min_count: int) -> tuple[int, int]:
        """Record a packet that failed every main-table probe.

        Args:
            key: packed flow ID.
            min_count: sentinel count from the failed main probe.

        Returns:
            ``(STORED, 0)`` if the packet was absorbed here, or
            ``(PROMOTE, new_count)`` when the caller must write
            ``(key, new_count)`` over the main-table sentinel
            (``new_count = count + 1``, counting this packet).
        """
        meter = self.meter
        idx, dig = self._cell(key)
        meter.hashes += 2
        meter.reads += 1
        digests = self.digests
        counts = self.counts
        count = counts[idx]
        if count == 0 or digests[idx] != dig:
            # New or colliding flow: replace the summarized record.
            digests[idx] = dig
            counts[idx] = 1
            meter.writes += 1
            return STORED, 0
        if count < min_count:
            if count < self.max_count:
                counts[idx] = count + 1
            meter.writes += 1
            return STORED, 0
        return PROMOTE, int(count) + 1

    def rows(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bucket indices and digests of a whole key batch, bit-identical
        to what :meth:`offer` computes per key (``np.uint64`` arrays)."""
        return (
            mix128_batch(lo, hi, self._index_seed) % np.uint64(self.n_cells),
            mix128_batch(lo, hi, self._digest_seed) & np.uint64(self._digest_mask),
        )

    def query(self, key: int) -> int:
        """Summarized count for ``key`` (0 unless its digest matches)."""
        idx, dig = self._cell(key)
        count = self.counts[idx]
        return int(count) if count > 0 and self.digests[idx] == dig else 0

    def query_batch(self, batch) -> np.ndarray:
        """Summarized counts for a whole key batch (``np.int64``).

        Digest comparison is exact integer work, so the whole query
        collapses into vectorized passes: batched bucket indices and
        digests, one gather of the (counts, digests) cells and one
        masked select.
        """
        idx, dig = self.rows(*batch.halves())
        counts = np.asarray(self.counts, dtype=np.int64)
        hit = counts[idx]
        digests = np.asarray(self.digests, dtype=np.uint64)
        return np.where((hit > 0) & (digests[idx] == dig), hit, np.int64(0))

    def clear_cell(self, key: int) -> None:
        """Erase the cell ``key`` maps to (used by the promotion-clearing
        HashFlow variant; the literal Algorithm 1 leaves it stale)."""
        idx = mix128(key, self._index_seed) % self.n_cells
        self.digests[idx] = 0
        self.counts[idx] = 0
        self.meter.writes += 1

    def occupancy(self) -> int:
        """Number of non-empty buckets."""
        return int(np.count_nonzero(np.asarray(self.counts, dtype=np.int64)))

    def estimate_cardinality(self) -> float:
        """Linear-counting estimate of distinct flows that hit this table.

        Paper §IV-A: linear counting is "used by HashFlow to estimate
        the number of flows in its ancillary table".
        """
        return linear_counting_estimate(self.n_cells, self.n_cells - self.occupancy())

    def reset(self) -> None:
        """Clear all buckets."""
        self.digests = cleared(self.digests)
        self.counts = cleared(self.counts)

    @property
    def memory_bits(self) -> int:
        """Buckets of (digest, counter)."""
        return self.n_cells * (self.digest.bits + self.counter_bits)

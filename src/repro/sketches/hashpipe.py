"""HashPipe (Sivaraman et al., SOSR 2017).

A pipeline of ``d`` hash tables (4 equal-size tables in the paper's
configuration).  The first stage *always* inserts the incoming packet's
flow, evicting any existing record; evicted records travel down the
pipeline, and at each later stage the record with the smaller count is
evicted and carried onward.  A record evicted from the last stage is
discarded.

As the HashFlow paper points out (Section II), this strategy frequently
splits one flow into multiple partial records in different tables, which
wastes memory and makes counts inaccurate — exactly the behaviour this
implementation reproduces (packets of an evicted flow that arrive later
re-insert it at stage 1 with a fresh count).

State is stage-major ``k_lo``/``k_hi``/``counts`` planes
(:mod:`repro.sketches.planes`): stage ``s`` owns cells ``[s·n, (s+1)·n)``.
"""

from __future__ import annotations

import numpy as np

from repro.flow.batch import KeyBatch
from repro.flow.key import FLOW_KEY_BITS
from repro.hashing.families import HashFamily
from repro.hashing.mixers import MASK64, key_groups, mix128
from repro.native import resolve_kernel
from repro.sketches.base import FlowCollector, column_records
from repro.sketches.planes import cleared, new_plane, occupied
from repro.specs import register

_COUNTER_BITS = 32

DEFAULT_STAGES = 4


@register("hashpipe")
class HashPipe(FlowCollector):
    """HashPipe with ``d`` equal-size stages.

    Args:
        cells_per_stage: buckets in each stage table.
        stages: number of pipeline stages (paper default: 4).
        seed: hash family seed.
        kernel: execution tier — ``"native"`` (C kernels over numpy
            planes), ``"numpy"`` (Python walks over list planes), or
            None to follow ``REPRO_KERNEL``.  Bit-identical either way;
            an explicit choice is recorded in the spec.
    """

    name = "HashPipe"

    def __init__(
        self,
        cells_per_stage: int,
        stages: int = DEFAULT_STAGES,
        seed: int = 0,
        kernel: str | None = None,
    ):
        super().__init__()
        if cells_per_stage <= 0:
            raise ValueError(f"cells_per_stage must be positive, got {cells_per_stage}")
        if stages < 1:
            raise ValueError(f"stages must be >= 1, got {stages}")
        params = dict(cells_per_stage=cells_per_stage, stages=stages, seed=seed)
        if kernel is not None:
            params["kernel"] = kernel
        self._record_spec(**params)
        self.kernel, self._native = resolve_kernel(kernel)
        self.cells_per_stage = cells_per_stage
        self.stages = stages
        self.seed = seed
        self._hashes = HashFamily(stages, master_seed=seed)
        # Seeds prebound for the hot path: `mix128(key, seed) % n` inline
        # skips the HashFunction.bucket call per stage.
        self._seeds = [h.seed for h in self._hashes]
        self._seeds_arr = np.array(self._seeds, dtype=np.uint64)
        arrays = self._native is not None
        n_total = stages * cells_per_stage
        self.k_lo = new_plane(n_total, np.uint64, arrays)
        self.k_hi = new_plane(n_total, np.uint64, arrays)
        self.counts = new_plane(n_total, np.int64, arrays)

    def process(self, key: int) -> None:
        """Push one packet through the pipeline (HashPipe update rule).

        The reference walk: a ``(key, count)`` carry visits each stage,
        which takes it if empty or holding the same key; otherwise the
        carry swaps with the stage's record if that one is smaller (at
        stage 1, always) and travels on.
        """
        if self._native is not None:
            # Batch of one through the kernel: bit-identical walk and
            # meter deltas, one implementation per tier.
            self.process_batch(KeyBatch([key]))
            return
        meter = self.meter
        meter.packets += 1
        n = self.cells_per_stage
        k_lo = self.k_lo
        k_hi = self.k_hi
        counts = self.counts
        carry = key
        c_lo, c_hi, c_count = key & MASK64, key >> 64, 1
        for s, seed in enumerate(self._seeds):
            idx = s * n + mix128(carry, seed) % n
            meter.hashes += 1
            meter.reads += 1
            count = counts[idx]
            if count == 0 or (k_lo[idx] == c_lo and k_hi[idx] == c_hi):
                k_lo[idx] = c_lo
                k_hi[idx] = c_hi
                counts[idx] = count + c_count
                meter.writes += 1
                return
            if s == 0 or count < c_count:
                k_lo[idx], c_lo = c_lo, k_lo[idx]
                k_hi[idx], c_hi = c_hi, k_hi[idx]
                counts[idx], c_count = c_count, count
                carry = (c_hi << 64) | c_lo
                meter.writes += 1

    def process_batch(self, keys) -> None:
        """Batched HashPipe update over the batch's 64-bit halves.

        Stage-1 indices depend only on the incoming keys, so they are
        precomputed for the whole batch in one vectorized pass.  Later
        stages hash the *evicted carry* record, which depends on table
        state and cannot be precomputed — those hashes run inline with
        prebound seeds.  Packet order is preserved and the meter is
        settled once per batch, so results are bit-identical to the
        scalar path.
        """
        batch = KeyBatch.coerce(keys)
        if not len(batch):
            return
        lo, hi = batch.halves()
        if self._native is not None:
            hashes, reads, writes = self._native.hashpipe_update(
                lo, hi, self._seeds_arr, self.stages, self.cells_per_stage,
                self.k_lo, self.k_hi, self.counts,
            )
            self.meter.add(
                packets=len(lo), hashes=hashes, reads=reads, writes=writes
            )
            return
        n = self.cells_per_stage
        seeds = self._seeds
        stages = self.stages
        k_lo = self.k_lo
        k_hi = self.k_hi
        counts = self.counts
        mix = mix128
        probes = writes = 0
        row0 = self._hashes[0].buckets_batch(batch, n).tolist()
        for idx, key_lo, key_hi in zip(row0, lo.tolist(), hi.tolist()):
            # Stage 1: always insert, evicting whatever is there.
            probes += 1
            count = counts[idx]
            if count == 0:
                k_lo[idx] = key_lo
                k_hi[idx] = key_hi
                counts[idx] = 1
                continue
            if k_lo[idx] == key_lo and k_hi[idx] == key_hi:
                counts[idx] = count + 1
                continue
            c_lo, c_hi, c_count = k_lo[idx], k_hi[idx], count
            k_lo[idx] = key_lo
            k_hi[idx] = key_hi
            counts[idx] = 1

            # Later stages: keep the larger record, carry the smaller.
            for s in range(1, stages):
                idx = s * n + mix((c_hi << 64) | c_lo, seeds[s]) % n
                probes += 1
                count = counts[idx]
                if count == 0 or (k_lo[idx] == c_lo and k_hi[idx] == c_hi):
                    k_lo[idx] = c_lo
                    k_hi[idx] = c_hi
                    counts[idx] = count + c_count
                    writes += 1
                    break
                if count < c_count:
                    k_lo[idx], c_lo = c_lo, k_lo[idx]
                    k_hi[idx], c_hi = c_hi, k_hi[idx]
                    counts[idx], c_count = c_count, count
                    writes += 1
            # Carry evicted from the final stage is discarded.
        self.meter.add(
            packets=len(row0), hashes=probes, reads=probes,
            writes=len(row0) + writes,
        )

    def record_columns(self):
        """Reported records as columns ``(lo, hi, packets, None)``.

        A flow split across stages holds several cells; it reports one
        row, at its first cell in stage-major order, carrying the sum
        of its cells — on every tier.
        """
        counts = self.counts
        lo = occupied(self.k_lo, counts, np.uint64)
        hi = occupied(self.k_hi, counts, np.uint64)
        packets = occupied(counts, counts, np.int64)
        order, starts = key_groups(lo, hi)
        # The sort is stable: a group starts at its flow's first cell.
        first = order[starts]
        sums = np.add.reduceat(packets[order], starts)
        rank = np.argsort(first)
        first = first[rank]
        return lo[first], hi[first], sums[rank], None

    def records(self) -> dict[int, int]:
        """Reported records: per-flow sums of the (possibly split) cells,
        in stage-major cell order on every tier."""
        lo, hi, packets, _ = self.record_columns()
        return column_records(lo, hi, packets)

    def query(self, key: int) -> int:
        """Sum the flow's counts across all stages (0 if absent)."""
        if self._native is not None:
            return int(self.query_batch(KeyBatch([key]))[0])
        lo = key & MASK64
        hi = key >> 64
        n = self.cells_per_stage
        total = 0
        for s, seed in enumerate(self._seeds):
            idx = s * n + mix128(key, seed) % n
            if self.k_lo[idx] == lo and self.k_hi[idx] == hi:
                total += self.counts[idx]
        return total

    def query_batch(self, keys) -> np.ndarray:
        """Batched :meth:`query`: vectorized per-stage partial-record sum.

        All stage indices come from one ``bucket_matrix`` pass; each
        stage compares both key halves with the batch's, and matches
        accumulate, so a split flow's partial records sum as in the
        scalar query.
        """
        batch = KeyBatch.coerce(keys)
        if not len(batch):
            return np.zeros(0, dtype=np.int64)
        lo, hi = batch.halves()
        n = self.cells_per_stage
        if self._native is not None:
            return self._native.hashpipe_query(
                lo, hi, self._seeds_arr, self.stages, n,
                self.k_lo, self.k_hi, self.counts,
            )
        k_lo = np.asarray(self.k_lo, dtype=np.uint64)
        k_hi = np.asarray(self.k_hi, dtype=np.uint64)
        counts = np.asarray(self.counts, dtype=np.int64)
        out = np.zeros(len(lo), dtype=np.int64)
        rows = self._hashes.bucket_matrix(batch, n).astype(np.int64)
        for s, row in enumerate(rows):
            idx = row + s * n
            out += np.where((k_lo[idx] == lo) & (k_hi[idx] == hi), counts[idx], 0)
        return out

    def estimate_cardinality(self) -> float:
        """Distinct keys currently held.

        HashPipe "does not use any advanced cardinality estimation
        technique to compensate for the flows it drops" (paper §IV-C),
        so this simply counts resident keys and underestimates badly
        under load.
        """
        return float(len(self.records()))

    def occupancy(self) -> int:
        """Number of non-empty cells across all stages."""
        return int(np.count_nonzero(np.asarray(self.counts, dtype=np.int64)))

    def reset(self) -> None:
        """Clear all stages and the meter."""
        self.k_lo = cleared(self.k_lo)
        self.k_hi = cleared(self.k_hi)
        self.counts = cleared(self.counts)
        self.meter.reset()

    @property
    def memory_bits(self) -> int:
        """``stages * cells`` records of (104-bit key, 32-bit counter)."""
        return self.stages * self.cells_per_stage * (FLOW_KEY_BITS + _COUNTER_BITS)

"""HashFlow: the paper's flow-record collection algorithm (Algorithm 1).

HashFlow keeps *accurate* records for elephant flows in a main table and
*summarized* records for mice flows in an ancillary table, glued
together by two strategies:

1. **Collision resolution** — a packet probes the main table with
   ``h_1 ... h_d``; it takes the first empty bucket or increments its
   own record.  Probes never evict, so records are never split.  The
   probe remembers the *sentinel*: the colliding bucket with the
   smallest count.
2. **Record promotion** — a packet that loses all ``d`` probes falls
   into the ancillary table (digest-keyed, evict-on-mismatch).  When its
   summarized count reaches the sentinel count, the flow has become an
   elephant and is promoted: it overwrites the sentinel record in the
   main table with ``count = ancillary count + 1``.

The main table can be a single multi-hash array or pipelined sub-tables
(paper default: 3 pipelined tables, ``α = 0.7``); see
:mod:`repro.core.maintable`.

Fidelity notes:

* Following the literal Algorithm 1, a promoted flow's ancillary cell is
  left stale (the paper does not clear it); pass
  ``clear_promoted=True`` for the tidier variant — the difference is
  measurable only through digest-collision noise.
* The sentinel is chosen among the *current packet's* ``d`` candidate
  buckets, so a promoted record is always found again by later packets
  of the same flow.
"""

from __future__ import annotations

import numpy as np

from repro.flow.batch import KeyBatch
from repro.hashing.digest import DEFAULT_DIGEST_BITS, DigestFunction
from repro.hashing.families import HashFamily
from repro.native import resolve_kernel
from repro.sketches.base import FlowCollector
from repro.specs import register
from repro.core.ancillary import PROMOTE, AncillaryTable, DEFAULT_COUNTER_BITS
from repro.core.maintable import ABSORBED, DEFAULT_ALPHA, DEFAULT_DEPTH, MainTable


@register("hashflow")
class HashFlow(FlowCollector):
    """The HashFlow collector.

    Args:
        main_cells: buckets in the main table.
        ancillary_cells: buckets in the ancillary table (the paper uses
            the same number as ``main_cells``).
        depth: number of main-table hash functions ``d`` (paper: 3).
        variant: ``"pipelined"`` (paper's evaluated configuration) or
            ``"multihash"``.
        alpha: pipeline weight ``α`` for the pipelined variant (paper: 0.7).
        digest_bits: ancillary digest width (paper: 8).
        ancillary_counter_bits: ancillary counter width (paper: 8; at
            most 62, since counters live in ``int64`` planes).
        clear_promoted: clear a flow's ancillary cell on promotion
            (Algorithm 1 leaves it stale; default follows the paper).
        promote: enable the record-promotion strategy (disable only for
            ablation studies — without it, ancillary elephants can never
            re-enter the main table).
        track_bytes: keep a 32-bit byte counter per main-table record
            (the NetFlow dOctets field), fed by packet sizes
            (:meth:`process_packet`, ``KeyBatch.sizes``).  Costs 32
            bits per cell and is off in the paper's configuration.
        seed: seed for all hash functions.
        kernel: execution tier — ``"native"`` (compiled C kernels over
            numpy planes), ``"numpy"`` (the reference tier, over
            Python-list planes), or None to follow the
            ``REPRO_KERNEL`` environment variable.  The two tiers are
            bit-identical (states, estimates, meters); an explicit
            choice is recorded in the spec so sweep workers rebuild
            the same tier.
    """

    name = "HashFlow"

    def __init__(
        self,
        main_cells: int,
        ancillary_cells: int | None = None,
        depth: int = DEFAULT_DEPTH,
        variant: str = "pipelined",
        alpha: float = DEFAULT_ALPHA,
        digest_bits: int = DEFAULT_DIGEST_BITS,
        ancillary_counter_bits: int = DEFAULT_COUNTER_BITS,
        clear_promoted: bool = False,
        promote: bool = True,
        track_bytes: bool = False,
        seed: int = 0,
        kernel: str | None = None,
    ):
        super().__init__()
        if ancillary_cells is None:
            ancillary_cells = main_cells
        params = dict(
            main_cells=main_cells,
            ancillary_cells=ancillary_cells,
            depth=depth,
            variant=variant,
            alpha=alpha,
            digest_bits=digest_bits,
            ancillary_counter_bits=ancillary_counter_bits,
            clear_promoted=clear_promoted,
            promote=promote,
            track_bytes=track_bytes,
            seed=seed,
        )
        # Only an explicit kernel choice is part of the collector's
        # identity; env-resolved tiers keep specs portable across
        # machines (the tiers are bit-identical anyway).
        if kernel is not None:
            params["kernel"] = kernel
        self._record_spec(**params)
        if ancillary_counter_bits > 62:
            raise ValueError(
                "ancillary counters live in int64 planes; "
                f"ancillary_counter_bits must be <= 62, got {ancillary_counter_bits}"
            )
        self.kernel, self._native = resolve_kernel(kernel)
        self.variant = variant
        self.clear_promoted = clear_promoted
        self.promote_enabled = promote
        self.track_bytes = track_bytes
        # The C kernels need numpy planes; the numpy tier's Python walk
        # runs fastest over lists (DESIGN §2).
        arrays = self._native is not None
        self.main = MainTable(
            main_cells,
            depth=depth,
            variant=variant,
            alpha=alpha,
            seed=seed,
            meter=self.meter,
            track_bytes=track_bytes,
            arrays=arrays,
        )
        # g1 and the digest base hash are independent of h_1..h_d.
        aux = HashFamily(2, master_seed=seed ^ 0xA5C1_11A7)
        self.ancillary = AncillaryTable(
            ancillary_cells,
            index_hash=aux[0],
            digest=DigestFunction(aux[1], bits=digest_bits),
            counter_bits=ancillary_counter_bits,
            meter=self.meter,
            arrays=arrays,
        )
        self.promotions = 0

    # ------------------------------------------------------------------
    # Update path (Algorithm 1)
    # ------------------------------------------------------------------
    def process(self, key: int, size: int = 0) -> None:
        """Process one packet of flow ``key`` (``size`` feeds the
        optional byte counters)."""
        if self._native is not None:
            # A batch of one through the kernel is bit-identical to the
            # scalar walk (same probes, same meter deltas) and keeps a
            # single implementation of Algorithm 1 per tier.
            self.process_batch(KeyBatch([key], sizes=[size]))
            return
        self.meter.packets += 1
        status, min_count, sentinel = self.main.probe(key, size)
        if status == ABSORBED:
            return
        if not self.promote_enabled:
            # Ablation mode: treat the sentinel as unbeatable, so the
            # ancillary only ever stores/increments.
            min_count = 1 << 62
        outcome, new_count = self.ancillary.offer(key, min_count)
        if outcome == PROMOTE:
            self.main.promote(sentinel, key, new_count, size)
            self.promotions += 1
            if self.clear_promoted:
                self.ancillary.clear_cell(key)

    def process_packet(self, packet) -> None:
        """Process a :class:`~repro.flow.packet.Packet`, counting bytes."""
        self.process(packet.key, packet.size)

    # ------------------------------------------------------------------
    # Batched update path
    # ------------------------------------------------------------------
    def process_batch(self, keys) -> None:
        """Run Algorithm 1 over a whole batch with precomputed hashes.

        Consumes the batch's 64-bit halves only (Python-int keys are
        never rebuilt): the C kernel on the native tier, the Python
        walk otherwise.  Packets are applied strictly in arrival order
        and the cost meter is settled once per batch, so records, query
        answers, promotions and meter totals are bit-identical to the
        scalar path.  With ``track_bytes=True`` the per-packet sizes
        come from ``KeyBatch.sizes``; a size-less batch counts every
        packet at 0 bytes, exactly as ``process(key)`` would.
        """
        batch = KeyBatch.coerce(keys)
        n = len(batch)
        if not n:
            return
        lo, hi = batch.halves()
        sizes = batch.sizes
        if not self.track_bytes:
            sizes = None
        elif sizes is None:
            sizes = np.zeros(n, dtype=np.int64)
        if self._native is not None:
            self._native_ingest(lo, hi, sizes)
        else:
            self._walk(lo, hi, sizes)

    def _native_ingest(
        self, lo: np.ndarray, hi: np.ndarray, sizes: np.ndarray | None
    ) -> None:
        """The kernel mutates the planes in place and returns its
        cost-meter deltas; packets are applied in arrival order, so
        states, promotions and meter totals stay bit-identical to the
        numpy tier."""
        main = self.main
        anc = self.ancillary
        hashes, reads, writes, promotions = self._native.hashflow_update(
            lo,
            hi,
            sizes,
            main.seeds_arr,
            main.offs_arr,
            main.sizes_arr,
            main.k_lo,
            main.k_hi,
            main.counts,
            main.bytes,
            anc._index_seed,
            anc._digest_seed,
            anc._digest_mask,
            anc.n_cells,
            anc.max_count,
            anc.digests,
            anc.counts,
            self.promote_enabled,
            self.clear_promoted,
        )
        self.promotions += promotions
        self.meter.add(
            packets=len(lo), hashes=hashes, reads=reads, writes=writes
        )

    def _walk(
        self, lo: np.ndarray, hi: np.ndarray, sizes: np.ndarray | None
    ) -> None:
        """The numpy tier's batched Algorithm 1 over the table planes.

        Every data-independent hash (main-table probe cells, ancillary
        cells and digests) is computed for the batch in a few numpy
        passes; the per-packet loop is then plain indexing, with the
        scalar probe/offer/promote control flow inlined.  Keys are
        compared as 64-bit halves: a stored key equals the packet's
        iff both halves match.  The loop runs over the numpy tier's
        Python-list planes.

        The meter is settled once: each main-stage probe costs one
        hash and one read; each ancillary offer two hashes and one
        read; every packet exactly one write (insert, increment,
        ancillary store or promotion), plus one per cleared ancillary
        cell under ``clear_promoted``.
        """
        main = self.main
        anc = self.ancillary
        stage_rows = main.stage_rows(lo, hi)
        # Ancillary cells stay numpy: few packets reach the offer.
        anc_idx, anc_dig = anc.rows(lo, hi)
        lo_list = lo.tolist()
        hi_list = hi.tolist()
        size_list = None if sizes is None else sizes.tolist()
        k_lo = main.k_lo
        k_hi = main.k_hi
        counts = main.counts
        mbytes = main.bytes
        a_digests = anc.digests
        a_counts = anc.counts
        a_max = anc.max_count
        unbeatable = not self.promote_enabled
        clear_promoted = self.clear_promoted
        n = len(lo_list)
        probes = offers = promotions = 0
        for i in range(n):
            key_lo = lo_list[i]
            key_hi = hi_list[i]
            min_count = -1
            for row in stage_rows:
                idx = row[i]
                probes += 1
                count = counts[idx]
                if count == 0:
                    k_lo[idx] = key_lo
                    k_hi[idx] = key_hi
                    counts[idx] = 1
                    if mbytes is not None:
                        mbytes[idx] = size_list[i]
                    break
                if k_lo[idx] == key_lo and k_hi[idx] == key_hi:
                    counts[idx] = count + 1
                    if mbytes is not None:
                        mbytes[idx] += size_list[i]
                    break
                if min_count < 0 or count < min_count:
                    min_count = count
                    sentinel = idx
            else:
                # Every stage collided: offer to the ancillary table.
                offers += 1
                ai = int(anc_idx[i])
                dig = int(anc_dig[i])
                acount = a_counts[ai]
                if acount == 0 or a_digests[ai] != dig:
                    a_digests[ai] = dig
                    a_counts[ai] = 1
                elif acount < min_count or unbeatable:
                    if acount < a_max:
                        a_counts[ai] = acount + 1
                else:
                    # Promotion: overwrite the sentinel record.
                    k_lo[sentinel] = key_lo
                    k_hi[sentinel] = key_hi
                    counts[sentinel] = acount + 1
                    if mbytes is not None:
                        mbytes[sentinel] = size_list[i]
                    promotions += 1
                    if clear_promoted:
                        a_digests[ai] = 0
                        a_counts[ai] = 0
        self.promotions += promotions
        self.meter.add(
            packets=n,
            hashes=probes + 2 * offers,
            reads=probes + offers,
            writes=n + (promotions if clear_promoted else 0),
        )

    def _native_query(self, batch: KeyBatch) -> np.ndarray:
        """Batched main-then-ancillary point queries via the C kernel."""
        lo, hi = batch.halves()
        main = self.main
        anc = self.ancillary
        return self._native.hashflow_query(
            lo,
            hi,
            main.seeds_arr,
            main.offs_arr,
            main.sizes_arr,
            main.k_lo,
            main.k_hi,
            main.counts,
            anc._index_seed,
            anc._digest_seed,
            anc._digest_mask,
            anc.n_cells,
            anc.digests,
            anc.counts,
        )

    def byte_records(self) -> dict[int, int]:
        """Per-flow byte counts (requires ``track_bytes=True``).

        Counts are exact for never-promoted records and lower bounds for
        promoted ones (bytes lost to ancillary churn are unrecoverable).

        Raises:
            RuntimeError: if byte tracking is disabled.
        """
        return self.main.byte_records()

    def byte_query(self, key: int) -> int | None:
        """The flow's resident byte count, or None if absent (requires
        ``track_bytes=True``); a per-key probe so expiry exporters read
        a few flows without scanning the whole table.

        Raises:
            RuntimeError: if byte tracking is disabled.
        """
        return self.main.byte_query(key)

    # ------------------------------------------------------------------
    # Report path
    # ------------------------------------------------------------------
    def records(self) -> dict[int, int]:
        """Accurate records: the main table's resident flows."""
        return self.main.records()

    def record_columns(self):
        """The main table's resident flows as columns, gathered from its
        planes (:meth:`MainTable.record_columns`)."""
        return self.main.record_columns()

    def query(self, key: int) -> int:
        """Main-table count, else the ancillary summarized count, else 0."""
        if self._native is not None:
            return int(self._native_query(KeyBatch([key]))[0])
        count = self.main.query(key)
        if count:
            return count
        return self.ancillary.query(key)

    def query_batch(self, keys) -> np.ndarray:
        """Batched :meth:`query`: vectorized main probe, then ancillary.

        Both tables answer the whole batch with precomputed hash rows
        (reusing the batch's 64-bit halves across every hash function);
        the scalar main-then-ancillary precedence becomes one masked
        select.  Bit-identical to the scalar query per key.  On the
        native tier the whole walk — probe stages, precedence, digest
        check — is one C kernel call over the planes.
        """
        batch = KeyBatch.coerce(keys)
        if self._native is not None:
            if not len(batch):
                return np.zeros(0, dtype=np.int64)
            return self._native_query(batch)
        main = self.main.query_batch(batch)
        ancillary = self.ancillary.query_batch(batch)
        return np.where(main != 0, main, ancillary)

    def estimate_cardinality(self) -> float:
        """Occupied main cells + linear counting over the ancillary table
        (paper §IV-A)."""
        return self.main.occupancy() + self.ancillary.estimate_cardinality()

    def heavy_hitters(self, threshold: int) -> dict[int, int]:
        """Main-table flows with more than ``threshold`` packets."""
        return {k: v for k, v in self.main.records().items() if v > threshold}

    def utilization(self) -> float:
        """Main-table utilization (the quantity modelled in §III-B)."""
        return self.main.utilization()

    def evict(self, key: int) -> bool:
        """Control-plane eviction: clear the flow's main-table record and
        its ancillary cell (used by timeout/export engines; not metered).

        Returns:
            Whether a main-table record was removed.
        """
        removed = self.main.remove(key)
        # clear_cell meters a write because the promotion path uses it
        # from the dataplane; eviction is control-plane, so undo it.
        writes_before = self.meter.writes
        self.ancillary.clear_cell(key)
        self.meter.writes = writes_before
        return removed

    def reset(self) -> None:
        """Clear both tables, the promotion counter and the meter."""
        self.main.reset()
        self.ancillary.reset()
        self.promotions = 0
        self.meter.reset()

    @property
    def memory_bits(self) -> int:
        """Main records + ancillary (digest, counter) cells."""
        return self.main.memory_bits + self.ancillary.memory_bits

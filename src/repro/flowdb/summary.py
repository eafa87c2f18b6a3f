"""Vectorized flow summaries: the leaf unit of the flowdb store.

A :class:`FlowSummary` is one window's (or one merged span's) flow
table flattened into sorted numpy arrays — the Flowyager insight
(PAPERS.md) applied to HashFlow exports: once a rotation's records are
canonically sorted by flow key, every query the store answers (top-k,
per-key lookup, cardinality, cross-window/cross-vantage merges)
becomes an array scan or a ``searchsorted``, and merging summaries is
a concatenate + :func:`~repro.hashing.mixers.key_groups` +
``reduceat``, never a Python-dict walk.  ``key_groups`` returns
``np.lexsort((lo, hi))``'s order, but through a stable sort that finds
the inputs' sorted runs, so a merge does not re-sort what its
summaries already sorted.

Counts are exact, not sketched: the store's bit-identity contract
(DESIGN §12) says querying merged summaries returns *exactly* what
replaying the underlying traces offline would, so packets are plain
``int64`` sums and merge semantics mirror :mod:`repro.netwide.merge`
(``sum`` for disjoint observation shares, ``max`` for multi-switch
duplicate sightings).

Octets carry an ``UNMEASURED`` sentinel (−1): pipelines without
measured byte counts export synthesized dOctets, and a merge where any
participant is unmeasured poisons the group to −1 rather than mixing
real and synthetic bytes into a number nobody can trust.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.hashing.mixers import MASK64, split_keys
from repro.stream.records import UNMEASURED, RecordBatch, merge_rows


def _empty_u64() -> np.ndarray:
    return np.empty(0, dtype=np.uint64)


def _empty_i64() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class FlowSummary:
    """One window's flows as canonically-sorted columnar arrays.

    Invariants (enforced by the constructors and by the store's node
    reader, assumed everywhere):

    * ``lo``/``hi`` are ``uint64`` halves of the packed 104-bit flow
      key, sorted ascending by the full key (``np.lexsort((lo, hi))``
      order) with no duplicates;
    * ``packets``/``octets`` are ``int64`` aligned with the keys;
      octets may be :data:`UNMEASURED`;
    * ``degraded_windows`` lists the leaf window indices whose content
      a fault made incomplete (propagated from archive manifests, PR 9)
      — empty means every contributing window was whole.

    Attributes:
        lo: low 64 bits of each flow key.
        hi: high 40 bits of each flow key (in a uint64).
        packets: exact packet count per flow.
        octets: exact byte count per flow, or :data:`UNMEASURED`.
        degraded_windows: contributing leaf windows flagged degraded.
    """

    lo: np.ndarray = field(default_factory=_empty_u64)
    hi: np.ndarray = field(default_factory=_empty_u64)
    packets: np.ndarray = field(default_factory=_empty_i64)
    octets: np.ndarray = field(default_factory=_empty_i64)
    degraded_windows: tuple[int, ...] = ()

    def __post_init__(self):
        n = len(self.lo)
        if not (len(self.hi) == len(self.packets) == len(self.octets) == n):
            raise ValueError("summary columns disagree on length")

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def degraded(self) -> bool:
        """True when any contributing window was flagged incomplete."""
        return bool(self.degraded_windows)

    @property
    def total_packets(self) -> int:
        return int(self.packets.sum())

    # -- construction -------------------------------------------------

    @classmethod
    def from_counts(
        cls,
        counts: dict[int, int],
        octets: dict[int, int] | None = None,
        degraded_windows: Iterable[int] = (),
    ) -> "FlowSummary":
        """Build from a ``{key: packets}`` dict (and optional octets)."""
        keys = sorted(counts)
        n = len(keys)
        lo, hi = split_keys(keys)
        pkts = np.fromiter((counts[k] for k in keys), np.int64, count=n)
        if octets is None:
            octs = np.full(n, UNMEASURED, dtype=np.int64)
        else:
            octs = np.fromiter(
                (octets.get(k, UNMEASURED) for k in keys), np.int64, count=n
            )
        return cls(lo, hi, pkts, octs, tuple(sorted(set(map(int, degraded_windows)))))

    @classmethod
    def from_records(
        cls, records: Any, degraded_windows: Iterable[int] = ()
    ) -> "FlowSummary":
        """Build from a :class:`~repro.stream.records.RecordBatch` (or
        record objects exposing ``key``/``packets``/``octets``, e.g.
        :class:`~repro.export.netflow_v5.NetFlowV5Record`).

        Duplicate keys sum (several exports of one flow in a window)
        through the one column merge, where an :data:`UNMEASURED` row
        marks the whole flow unmeasured.
        """
        batch = RecordBatch.coerce(records)
        lo, hi, packets, octets, _, _ = merge_rows(
            batch.lo, batch.hi, batch.packets, batch.octets
        )
        degraded = tuple(sorted(set(map(int, degraded_windows))))
        return cls(lo, hi, packets, octets, degraded)

    # -- scalar views (tests, text output) ----------------------------

    def keys(self) -> Iterator[int]:
        """Packed flow keys, ascending."""
        for lo, hi in zip(self.lo.tolist(), self.hi.tolist()):
            yield (hi << 64) | lo

    def counts(self) -> dict[int, int]:
        """``{key: packets}`` — the shape netwide/merge and tests speak."""
        return dict(zip(self.keys(), self.packets.tolist()))

    def octet_counts(self) -> dict[int, int]:
        """``{key: octets}`` with :data:`UNMEASURED` sentinels intact."""
        return dict(zip(self.keys(), self.octets.tolist()))

    # -- queries ------------------------------------------------------

    def lookup(self, key: int) -> tuple[int, int] | None:
        """Exact-key lookup: ``(packets, octets)`` or None.

        Two ``searchsorted`` probes — the hi half bounds a slice, the
        lo half resolves within it; no hashing, no Python scan.
        """
        key = int(key)
        lo = np.uint64(key & MASK64)
        hi = np.uint64(key >> 64)
        left = int(np.searchsorted(self.hi, hi, side="left"))
        right = int(np.searchsorted(self.hi, hi, side="right"))
        if left == right:
            return None
        idx = left + int(np.searchsorted(self.lo[left:right], lo, side="left"))
        if idx >= right or self.lo[idx] != lo:
            return None
        return int(self.packets[idx]), int(self.octets[idx])

    def top_k(self, k: int) -> list[tuple[int, int]]:
        """The ``k`` heaviest flows as ``(key, packets)``, deterministic.

        Order is descending packets with ascending key breaking ties —
        exactly ``sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))``,
        so CLI output and offline ground truth compare bit-for-bit.
        A partition pass bounds the candidate set before the full sort
        touches only ~k rows.
        """
        n = len(self)
        k = int(k)
        if k <= 0 or n == 0:
            return []
        if k < n:
            threshold = np.partition(self.packets, n - k)[n - k]
            candidates = np.flatnonzero(self.packets >= threshold)
        else:
            candidates = np.arange(n)
        order = np.lexsort(
            (self.lo[candidates], self.hi[candidates], -self.packets[candidates])
        )
        chosen = candidates[order[:k]]
        keys_hi = self.hi[chosen].tolist()
        keys_lo = self.lo[chosen].tolist()
        pkts = self.packets[chosen].tolist()
        return [
            ((hi << 64) | lo, int(p)) for lo, hi, p in zip(keys_lo, keys_hi, pkts)
        ]

    def cardinality(self) -> int:
        """Distinct flows (exact — the summary is deduplicated)."""
        return len(self)


def merge_summaries(
    summaries: Sequence[FlowSummary], mode: str = "sum"
) -> FlowSummary:
    """Merge summaries into one, exactly.

    Args:
        summaries: any number of summaries (zero → empty summary).
        mode: ``"sum"`` for disjoint observation shares (windows of one
            vantage, sharded workers) or ``"max"`` for multi-vantage
            duplicate sightings — the two semantics of
            :mod:`repro.netwide.merge`, vectorized.

    Packet counts group by flow key through the one column merge
    (:func:`~repro.stream.records.merge_rows`: one
    :func:`~repro.hashing.mixers.key_groups` sort, ``np.lexsort``'s
    order over the concatenated inputs' sorted runs, then
    ``reduceat``); octets follow the same grouping but any
    :data:`UNMEASURED` participant poisons its group.  Degraded-window
    provenance is the union of the inputs'.
    """
    if mode not in ("sum", "max"):
        raise ValueError(f"unknown merge mode {mode!r}; use 'sum' or 'max'")
    summaries = [s for s in summaries if s is not None]
    degraded: set[int] = set()
    for summary in summaries:
        degraded.update(summary.degraded_windows)
    nonempty = [s for s in summaries if len(s)]
    if not nonempty:
        return FlowSummary(degraded_windows=tuple(sorted(degraded)))
    if len(nonempty) == 1:
        only = nonempty[0]
        return FlowSummary(
            only.lo, only.hi, only.packets, only.octets, tuple(sorted(degraded))
        )
    lo, hi, packets, octets, _, _ = merge_rows(
        np.concatenate([s.lo for s in nonempty]),
        np.concatenate([s.hi for s in nonempty]),
        np.concatenate([s.packets for s in nonempty]),
        np.concatenate([s.octets for s in nonempty]),
        mode,
    )
    return FlowSummary(lo, hi, packets, octets, tuple(sorted(degraded)))

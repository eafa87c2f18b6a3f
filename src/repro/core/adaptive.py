"""Adaptivity extensions (the paper's future work, Section V).

The paper closes with: "we plan to ... study how to make it adaptive to
traffic variation and network wide measurement."  This module supplies
the traffic-variation half:

* :class:`EpochedHashFlow` — rotates the HashFlow state every epoch (a
  fixed packet budget), exporting each epoch's records into a cumulative
  store, so long-running measurement does not saturate the tables.
* :class:`AdaptiveHashFlow` — adjusts the promotion margin based on the
  observed ancillary replacement (thrash) rate: under heavy mice churn
  the ancillary table evicts constantly and genuine elephants struggle
  to accumulate counts, so lowering the effective promotion bar keeps
  them flowing into the main table.
"""

from __future__ import annotations

import numpy as np

from repro.core.ancillary import PROMOTE
from repro.core.hashflow import HashFlow
from repro.core.maintable import ABSORBED
from repro.flow.batch import KeyBatch
from repro.sketches.base import FlowCollector, gather_estimates
from repro.specs import build, register
from repro.stream.rotation import CountRotation, export_and_reset


def merge_records(into: dict[int, int], records: dict[int, int]) -> None:
    """Accumulate ``records`` into ``into`` (summing counts per flow)."""
    for key, count in records.items():
        into[key] = into.get(key, 0) + count


class EpochedHashFlow(FlowCollector):
    """HashFlow with periodic epoch rotation.

    A thin adapter binding a
    :class:`repro.stream.rotation.CountRotation` policy (the shared
    epoch-boundary logic of the streaming pipeline) to one HashFlow,
    with the rotated epochs merged into a cumulative archive.

    Args:
        inner: the HashFlow instance to rotate.
        epoch_packets: packets per epoch; the tables are exported and
            reset after every ``epoch_packets`` packets.
    """

    name = "EpochedHashFlow"

    def __init__(self, inner: HashFlow, epoch_packets: int):
        super().__init__()
        self.inner = inner
        self.policy = CountRotation(epoch_packets)
        self.meter = inner.meter  # share the inner meter
        self._epoch_count = 0
        self._archive: dict[int, int] = {}

    @property
    def epoch_packets(self) -> int:
        return self.policy.epoch_packets

    @property
    def epochs_completed(self) -> int:
        """Number of epochs rotated so far."""
        return self._epoch_count

    def process(self, key: int) -> None:
        """Feed the inner collector, rotating at epoch boundaries."""
        self.inner.process(key)
        if self.policy.tick():
            self.rotate()

    def rotate(self) -> dict[int, int]:
        """Export the current epoch's records and reset the tables
        (cumulative cost accounting survives the reset).

        Returns:
            The records of the epoch that just closed.
        """
        exported = export_and_reset(self.inner)
        merge_records(self._archive, exported)
        self._epoch_count += 1
        self.policy.mark_rotated()
        return exported

    def records(self) -> dict[int, int]:
        """Archived records merged with the live epoch's records."""
        merged = dict(self._archive)
        merge_records(merged, self.inner.records())
        return merged

    def query(self, key: int) -> int:
        """Archived count plus the live epoch's estimate."""
        return self._archive.get(key, 0) + self.inner.query(key)

    def query_batch(self, keys) -> np.ndarray:
        """Batched :meth:`query`: one archive dict-gather plus the inner
        collector's vectorized batch query."""
        batch = KeyBatch.coerce(keys)
        return gather_estimates(self._archive, batch) + self.inner.query_batch(batch)

    def estimate_cardinality(self) -> float:
        """Archived distinct flows plus the live epoch's estimate.

        Flows spanning epochs are counted once per epoch; for long-lived
        traffic this overestimates, which is the inherent cost of epoch
        rotation (documented rather than hidden).
        """
        live = self.inner.estimate_cardinality()
        if not self._archive:
            return live
        return float(len(self._archive)) + live - len(
            self._archive.keys() & self.inner.records().keys()
        )

    def reset(self) -> None:
        """Clear the archive and the inner collector."""
        self.inner.reset()
        self._archive.clear()
        self._epoch_count = 0
        self.policy.reset()

    @property
    def memory_bits(self) -> int:
        """On-switch memory: the inner collector only (the archive lives
        off-switch at the collector, as in operational NetFlow)."""
        return self.inner.memory_bits

    def spec_params(self) -> dict:
        """Nested spec: the inner collector's spec plus the epoch size."""
        return {
            "inner": self.inner.spec.to_dict(),
            "epoch_packets": self.epoch_packets,
        }


@register("epoched", cls=EpochedHashFlow)
def _build_epoched(inner, epoch_packets) -> EpochedHashFlow:
    """Registry builder: construct the inner collector from its spec."""
    return EpochedHashFlow(build(inner), epoch_packets)


@register("adaptive_hashflow")
class AdaptiveHashFlow(HashFlow):
    """HashFlow with a promotion margin adapted to ancillary thrash.

    Every ``window`` packets the collector inspects how often ancillary
    offers replaced an existing record (digest mismatch churn).  A high
    replacement share means mice churn is suppressing promotion, so the
    margin grows (promote earlier); a low share shrinks it back toward
    the paper's exact rule.

    The margin ``m`` relaxes the promotion condition to
    ``count >= sentinel_min - m``.
    """

    name = "AdaptiveHashFlow"

    def __init__(self, *args, window: int = 4096, max_margin: int = 8, **kwargs):
        super().__init__(*args, **kwargs)
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if max_margin < 0:
            raise ValueError(f"max_margin must be >= 0, got {max_margin}")
        self._spec_params.update(window=window, max_margin=max_margin)
        self.window = window
        self.max_margin = max_margin
        self.margin = 0
        self._window_offers = 0
        self._window_replacements = 0

    def process(self, key: int, size: int = 0) -> None:
        """Algorithm 1 with the adaptive promotion margin (``size``
        feeds the optional byte counters)."""
        self.meter.packets += 1
        status, min_count, sentinel = self.main.probe(key, size)
        if status == ABSORBED:
            return
        before = self.ancillary.query(key)
        effective_min = max(1, min_count - self.margin)
        outcome, new_count = self.ancillary.offer(key, effective_min)
        self._window_offers += 1
        if before == 0:
            self._window_replacements += 1
        if outcome == PROMOTE:
            self.main.promote(sentinel, key, new_count, size)
            self.promotions += 1
            if self.clear_promoted:
                self.ancillary.clear_cell(key)
        if self._window_offers >= self.window:
            self._adapt()

    def process_batch(self, keys) -> None:
        """Per-packet loop: the margin adapts mid-batch, so the base
        class's vectorized Algorithm 1 (which assumes the exact
        promotion rule throughout) must not engage.  The *query* side
        has no such state dependence — the margin only shapes updates —
        so the inherited vectorized ``query_batch`` stays valid."""
        batch = KeyBatch.coerce(keys)
        sizes = [0] * len(batch) if batch.sizes is None else batch.sizes.tolist()
        process = self.process
        for key, size in zip(batch.keys, sizes):
            process(key, size)

    def _adapt(self) -> None:
        """Update the margin from the last window's replacement share."""
        share = self._window_replacements / self._window_offers
        if share > 0.5 and self.margin < self.max_margin:
            self.margin += 1
        elif share < 0.25 and self.margin > 0:
            self.margin -= 1
        self._window_offers = 0
        self._window_replacements = 0

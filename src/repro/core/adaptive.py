"""Adaptivity extensions (the paper's future work, Section V).

The paper closes with: "we plan to ... study how to make it adaptive to
traffic variation and network wide measurement."  This module supplies
the traffic-variation half: :class:`AdaptiveHashFlow` adjusts the
promotion margin based on the observed ancillary replacement (thrash)
rate.  Under heavy mice churn the ancillary table evicts constantly and
genuine elephants struggle to accumulate counts, so lowering the
effective promotion bar keeps them flowing into the main table.

Long-running measurement that must not saturate the tables rotates
them instead: a :class:`~repro.stream.pipeline.Pipeline` with a
:mod:`repro.stream.rotation` policy.
"""

from __future__ import annotations

from repro.core.ancillary import PROMOTE
from repro.core.hashflow import HashFlow
from repro.core.maintable import ABSORBED
from repro.flow.batch import KeyBatch
from repro.specs import register


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

    def reset(self) -> None:
        """Clear the tables, the meter and the adaptation state (the
        margin and the current window's tallies)."""
        super().reset()
        self.margin = 0
        self._window_offers = 0
        self._window_replacements = 0

    def _adapt(self) -> None:
        """Update the margin from the last window's replacement share."""
        share = self._window_replacements / self._window_offers
        if share > 0.5 and self.margin < self.max_margin:
            self.margin += 1
        elif share < 0.25 and self.margin > 0:
            self.margin -= 1
        self._window_offers = 0
        self._window_replacements = 0

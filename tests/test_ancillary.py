"""Tests for repro.core.ancillary."""

from __future__ import annotations

import math

import pytest

from repro.core.ancillary import PROMOTE, STORED, AncillaryTable
from repro.hashing.digest import DigestFunction
from repro.hashing.families import HashFamily, HashFunction


def make(n_cells=64, counter_bits=8, digest_bits=8) -> AncillaryTable:
    fam = HashFamily(2, master_seed=99)
    return AncillaryTable(
        n_cells,
        index_hash=fam[0],
        digest=DigestFunction(fam[1], bits=digest_bits),
        counter_bits=counter_bits,
    )


class TestOfferSemantics:
    def test_first_offer_stores(self):
        table = make()
        outcome, _ = table.offer(42, min_count=100)
        assert outcome == STORED
        assert table.query(42) == 1

    def test_increments_below_sentinel(self):
        table = make()
        for _ in range(5):
            outcome, _ = table.offer(42, min_count=100)
            assert outcome == STORED
        assert table.query(42) == 5

    def test_promotes_at_sentinel(self):
        """Algorithm 1: count < min fails when count == min, triggering
        promotion with count + 1 (the paper's worked example: sentinel
        min 7, ancillary (f8,7) -> promoted as (f8,8))."""
        table = make()
        for _ in range(7):
            table.offer(42, min_count=100)
        outcome, new_count = table.offer(42, min_count=7)
        assert outcome == PROMOTE
        assert new_count == 8

    def test_promotion_leaves_record_stale(self):
        """The literal Algorithm 1 does not clear the promoted cell."""
        table = make()
        table.offer(42, min_count=100)
        table.offer(42, min_count=1)  # promote
        assert table.query(42) == 1  # stale summarized record remains

    def test_clear_cell(self):
        table = make()
        table.offer(42, min_count=100)
        table.clear_cell(42)
        assert table.query(42) == 0

    def test_digest_mismatch_replaces(self):
        """A colliding flow with a different digest evicts the occupant."""
        table = make(n_cells=1)  # force every flow into one bucket
        table.offer(1, min_count=100)
        count_before = table.query(1)
        assert count_before == 1
        # Find a key with a different digest than key 1.
        other = next(
            k for k in range(2, 2000) if table.digest(k) != table.digest(1)
        )
        outcome, _ = table.offer(other, min_count=100)
        assert outcome == STORED
        assert table.query(1) == 0  # replaced
        assert table.query(other) == 1

    def test_digest_collision_merges_flows(self):
        """Flows sharing bucket *and* digest are mixed up — the small
        inaccuracy the paper accepts for the memory saving."""
        table = make(n_cells=1, digest_bits=1)
        table.offer(1, min_count=100)
        alias = next(
            k for k in range(2, 50) if table.digest(k) == table.digest(1)
        )
        table.offer(alias, min_count=100)
        assert table.query(1) == 2  # merged count


class TestCounterSaturation:
    def test_saturates_at_counter_max(self):
        table = make(counter_bits=4)  # max 15
        for _ in range(100):
            table.offer(42, min_count=10_000)
        assert table.query(42) == 15


class TestQueries:
    def test_query_unknown_zero(self):
        assert make().query(123) == 0

    def test_query_checks_digest(self):
        table = make(n_cells=1)
        table.offer(1, min_count=100)
        other = next(
            k for k in range(2, 2000) if table.digest(k) != table.digest(1)
        )
        assert table.query(other) == 0


class TestCardinality:
    def test_empty_table_estimates_zero(self):
        assert make(n_cells=128).estimate_cardinality() == 0.0

    def test_estimate_tracks_distinct_offers(self):
        table = make(n_cells=4096)
        for key in range(1000):
            table.offer(key, min_count=10)
        est = table.estimate_cardinality()
        assert est == pytest.approx(1000, rel=0.15)

    def test_saturated_estimate_is_inf(self):
        table = make(n_cells=4)
        for key in range(500):
            table.offer(key, min_count=10)
        assert math.isinf(table.estimate_cardinality())


class TestLifecycle:
    def test_occupancy(self):
        table = make(n_cells=512)
        assert table.occupancy() == 0
        for key in range(100):
            table.offer(key, min_count=10)
        assert 0 < table.occupancy() <= 100

    def test_reset(self):
        table = make()
        table.offer(1, min_count=5)
        table.reset()
        assert table.occupancy() == 0

    def test_memory_bits(self):
        assert make(n_cells=100).memory_bits == 100 * 16

    @pytest.mark.parametrize("kwargs", [{"n_cells": 0}, {"n_cells": 8, "counter_bits": 0}])
    def test_validation(self, kwargs):
        fam = HashFamily(2, master_seed=1)
        with pytest.raises(ValueError):
            AncillaryTable(
                index_hash=fam[0], digest=DigestFunction(fam[1]), **kwargs
            )

    def test_rejects_hashes_it_cannot_address_by_seed(self):
        """Cells are addressed by mix128 seeds, so a hash with another
        bucket function would be silently ignored; it is refused."""

        class OddHash(HashFunction):
            def bucket(self, key, n):
                return key % n

        with pytest.raises(TypeError, match="HashFunction"):
            AncillaryTable(
                16,
                index_hash=OddHash(seed=0),
                digest=DigestFunction(HashFunction(seed=1)),
            )

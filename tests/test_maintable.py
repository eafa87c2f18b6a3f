"""Tests for repro.core.maintable."""

from __future__ import annotations

import pytest

from repro.analysis.model import multihash_utilization, pipelined_utilization
from repro.core.maintable import (
    ABSORBED,
    MISSED,
    MainTable,
    pipeline_sizes,
)


class TestPipelineSizes:
    def test_total_exact(self):
        sizes = pipeline_sizes(1000, 3, 0.7)
        assert sum(sizes) == 1000

    def test_geometric_decay(self):
        sizes = pipeline_sizes(10_000, 3, 0.7)
        assert sizes[0] > sizes[1] > sizes[2]
        assert sizes[1] / sizes[0] == pytest.approx(0.7, rel=0.05)

    def test_each_table_nonempty(self):
        assert all(s >= 1 for s in pipeline_sizes(10, 3, 0.5))

    @pytest.mark.parametrize("n,d,a", [(2, 3, 0.7), (100, 3, 0.0), (100, 3, 1.0)])
    def test_validation(self, n, d, a):
        with pytest.raises(ValueError):
            pipeline_sizes(n, d, a)


@pytest.mark.parametrize(
    "factory",
    [
        lambda n: MainTable(n, depth=3, seed=1, variant="multihash"),
        lambda n: MainTable(n, depth=3, alpha=0.7, seed=1, variant="pipelined"),
    ],
    ids=["multihash", "pipelined"],
)
class TestMainTableContract:
    def test_insert_then_hit(self, factory):
        table = factory(64)
        status, _, _ = table.probe(42)
        assert status == ABSORBED
        status, _, _ = table.probe(42)
        assert status == ABSORBED
        assert table.query(42) == 2

    def test_query_absent(self, factory):
        assert factory(64).query(9) == 0

    def test_records_accumulate(self, factory):
        table = factory(256)
        for key in range(20):
            for _ in range(3):
                table.probe(key)
        records = table.records()
        assert records == {key: 3 for key in range(20)}

    def test_no_eviction_on_probe(self, factory):
        """Collision resolution never evicts: existing records survive any
        amount of colliding traffic."""
        table = factory(8)
        for key in range(200):
            table.probe(key)
        resident = table.records()
        for key in range(200, 400):
            table.probe(key)
        after = table.records()
        for key, count in resident.items():
            assert after.get(key, 0) >= count

    def test_miss_reports_min_sentinel(self, factory):
        table = factory(4)
        # Fill the table with flows of varying counts.
        for key in range(50):
            for _ in range(key + 1):
                table.probe(key)
        status, min_count, sentinel = table.probe(777)
        if status == MISSED:
            counts = table.records().values()
            assert min_count >= min(counts)
            assert sentinel is not None

    def test_promote_overwrites_sentinel(self, factory):
        table = factory(4)
        for key in range(40):
            table.probe(key)
        status, _, sentinel = table.probe(777)
        assert status == MISSED
        table.promote(sentinel, 777, 99)
        assert table.query(777) == 99

    def test_occupancy_and_utilization(self, factory):
        table = factory(100)
        assert table.occupancy() == 0
        for key in range(30):
            table.probe(key)
        assert 0 < table.occupancy() <= 30
        assert table.utilization() == table.occupancy() / 100

    def test_reset(self, factory):
        table = factory(32)
        table.probe(1)
        table.reset()
        assert table.occupancy() == 0
        assert table.records() == {}

    def test_memory_bits(self, factory):
        assert factory(100).memory_bits == 100 * 136


class TestUtilizationMatchesModel:
    def test_multihash_matches_eq1(self):
        n, d = 5000, 3
        table = MainTable(n, depth=d, seed=3, variant="multihash")
        m = 2 * n
        for key in range(m):
            table.probe(1_000_000 + key)
        assert table.utilization() == pytest.approx(
            multihash_utilization(m, n, d), abs=0.03
        )

    def test_pipelined_matches_eq5(self):
        n, d, alpha = 5000, 3, 0.7
        table = MainTable(n, depth=d, alpha=alpha, seed=3, variant="pipelined")
        m = n
        for key in range(m):
            table.probe(1_000_000 + key)
        assert table.utilization() == pytest.approx(
            pipelined_utilization(m, n, d, alpha), abs=0.03
        )

    def test_pipelined_beats_multihash_at_moderate_load(self):
        """Fig. 2d: pipelined tables improve utilization at d=3."""
        n = 4000
        mh = MainTable(n, depth=3, seed=5, variant="multihash")
        pt = MainTable(n, depth=3, alpha=0.7, seed=5, variant="pipelined")
        for key in range(n):
            mh.probe(key)
            pt.probe(key)
        assert pt.utilization() > mh.utilization()


class TestPipelinedSpecifics:
    def test_per_table_utilization_shape(self):
        pt = MainTable(1000, depth=3, alpha=0.7, seed=1, variant="pipelined")
        for key in range(800):
            pt.probe(key)
        utils = pt.per_table_utilization()
        assert len(utils) == 3
        # Earlier tables fill first under this scheme.
        assert utils[0] >= utils[-1]

    def test_sizes_attribute(self):
        pt = MainTable(1000, depth=3, alpha=0.7, variant="pipelined")
        assert pt.sizes == pipeline_sizes(1000, 3, 0.7)

    def test_depth_one_degenerates_to_single_table(self):
        pt = MainTable(100, depth=1, alpha=0.7, variant="pipelined")
        assert pt.sizes == [100]


class TestValidation:
    def test_multihash_invalid(self):
        with pytest.raises(ValueError):
            MainTable(0, variant="multihash")
        with pytest.raises(ValueError):
            MainTable(10, depth=0, variant="multihash")

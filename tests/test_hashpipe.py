"""Tests for repro.sketches.hashpipe."""

from __future__ import annotations

import pytest

from repro.sketches.hashpipe import HashPipe


def stored_key(hp: HashPipe, idx: int) -> int:
    """The flow key held in flat cell ``idx`` (0 if the cell is empty)."""
    return (int(hp.k_hi[idx]) << 64) | int(hp.k_lo[idx])


class TestBasics:
    def test_single_flow_counted_exactly(self):
        hp = HashPipe(cells_per_stage=64, stages=4)
        for _ in range(10):
            hp.process(42)
        assert hp.query(42) == 10

    def test_query_unknown_zero(self):
        hp = HashPipe(cells_per_stage=16)
        assert hp.query(5) == 0

    def test_few_flows_all_recorded(self):
        hp = HashPipe(cells_per_stage=256, stages=4, seed=3)
        flows = list(range(1, 51))
        for f in flows:
            for _ in range(3):
                hp.process(f)
        records = hp.records()
        assert set(records) == set(flows)

    @pytest.mark.parametrize("kwargs", [{"cells_per_stage": 0}, {"cells_per_stage": 4, "stages": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HashPipe(**kwargs)


class TestEvictionBehaviour:
    def test_stage1_always_inserts_new_flow(self):
        """The defining HashPipe behaviour: a new flow always lands in
        stage 1, evicting the occupant."""
        hp = HashPipe(cells_per_stage=1, stages=2, seed=0)
        hp.process(1)  # stage-1 cell now holds flow 1
        hp.process(2)  # flow 2 must take the stage-1 cell
        assert stored_key(hp, 0) == 2

    def test_counts_nearly_conserved_under_light_load(self):
        """Packets vanish only when a carried record loses at *every*
        stage; under light load that is rare, so the recorded total
        stays close to (and never above) the stream length."""
        hp = HashPipe(cells_per_stage=512, stages=4, seed=1)
        flows = [i % 40 for i in range(2000)]
        for f in flows:
            hp.process(f)
        total = sum(hp.records().values())
        assert total <= 2000
        assert total > 2000 * 0.9

    def test_split_records_possible(self, small_trace):
        """Packets of an evicted flow re-insert at stage 1, splitting the
        flow across stages (the defect HashFlow fixes, paper §II)."""
        hp = HashPipe(cells_per_stage=64, stages=4, seed=2)
        hp.process_all(small_trace.keys())
        n = hp.cells_per_stage
        split = 0
        for key in hp.records():
            appearances = sum(
                1
                for s in range(hp.stages)
                if stored_key(hp, s * n + hp._hashes[s].bucket(key, n)) == key
            )
            if appearances > 1:
                split += 1
        assert split > 0

    def test_overload_drops_flows(self, small_trace):
        hp = HashPipe(cells_per_stage=32, stages=4, seed=2)
        hp.process_all(small_trace.keys())
        assert len(hp.records()) < small_trace.num_flows
        assert hp.occupancy() <= 4 * 32


class TestElephantRetention:
    def test_large_flows_survive_pressure(self):
        """Later stages keep the larger count, so elephants persist."""
        hp = HashPipe(cells_per_stage=128, stages=4, seed=5)
        elephant = 999
        for i in range(6000):
            hp.process(elephant)
            hp.process(10_000 + i)  # stream of one-packet mice
        assert hp.query(elephant) > 3000

    def test_heavy_hitters_reported(self):
        hp = HashPipe(cells_per_stage=256, stages=4, seed=5)
        for f in range(20):
            for _ in range(100):
                hp.process(f)
        for i in range(3000):
            hp.process(50_000 + i)
        hh = hp.heavy_hitters(50)
        assert len(set(hh) & set(range(20))) >= 15


class TestAccounting:
    def test_cardinality_is_resident_keys(self, small_trace):
        hp = HashPipe(cells_per_stage=64, stages=4)
        hp.process_all(small_trace.keys())
        assert hp.estimate_cardinality() == len(hp.records())

    def test_memory_bits(self):
        hp = HashPipe(cells_per_stage=100, stages=4)
        assert hp.memory_bits == 4 * 100 * 136

    def test_meter_counts_packets(self, tiny_trace):
        hp = HashPipe(cells_per_stage=16)
        hp.process_all(tiny_trace.keys())
        assert hp.meter.packets == len(tiny_trace)
        assert hp.meter.hashes >= len(tiny_trace)

    def test_reset(self):
        hp = HashPipe(cells_per_stage=16)
        hp.process(1)
        hp.reset()
        assert hp.records() == {}
        assert hp.meter.packets == 0

"""Adversarial and failure-injection tests.

Sketches live in hostile environments: hash-colliding flows, pathological
arrival orders, saturating counters.  These tests build worst-case
inputs deliberately and check that every structure degrades the way its
design says it should — gracefully, never corrupting unrelated state.
"""

from __future__ import annotations

import pytest

from repro.core.hashflow import HashFlow
from repro.core.maintable import MainTable
from repro.sketches.elastic import ElasticSketch
from repro.sketches.flowradar import FlowRadar
from repro.sketches.hashpipe import HashPipe


def colliding_keys(table: MainTable, bucket: int, count: int) -> list[int]:
    """Find ``count`` keys whose *first* probe lands in ``bucket``."""
    keys = []
    candidate = 1
    h1 = table._hashes[0]
    while len(keys) < count:
        if h1.bucket(candidate, table.n_cells) == bucket:
            keys.append(candidate)
        candidate += 1
    return keys


class TestHashFlowUnderCollisionAttack:
    def test_first_bucket_collision_storm(self):
        """Thousands of flows aimed at one h1 bucket: the multi-hash
        probes spread them, and the victim record is never evicted."""
        hf = HashFlow(main_cells=512, variant="multihash", seed=3)
        table = hf.main
        victim_keys = colliding_keys(table, bucket=7, count=200)
        victim = victim_keys[0]
        for _ in range(10):
            hf.process(victim)
        for key in victim_keys[1:]:
            hf.process(key)
        assert hf.main.query(victim) == 10  # untouched by the storm

    def test_promotion_cannot_be_hijacked_cheaply(self):
        """An attacker flow must actually send ``sentinel`` packets to
        displace a record — promotion is rate-limited by real traffic."""
        hf = HashFlow(main_cells=8, ancillary_cells=8, seed=1)
        # Establish elephants with large counts.
        for key in range(50):
            for _ in range(30):
                hf.process(key)
        resident_before = set(hf.records())
        # One packet each from many attacker flows: none can promote,
        # because every sentinel count is ~30.
        promotions_before = hf.promotions
        for key in range(1000, 1400):
            hf.process(key)
        assert hf.promotions == promotions_before
        assert set(hf.records()) == resident_before


class TestHashPipePathologies:
    def test_alternating_flows_thrash_stage_one(self):
        """Two flows sharing the stage-1 bucket alternate evictions —
        HashPipe's known pathology; counts stay split but queryable."""
        hp = HashPipe(cells_per_stage=64, stages=4, seed=2)
        h1 = hp._hashes[0]
        a = 1
        b = next(
            k
            for k in range(2, 100_000)
            if h1.bucket(k, 64) == h1.bucket(a, 64)
        )
        for _ in range(500):
            hp.process(a)
            hp.process(b)
        assert hp.query(a) + hp.query(b) >= 600  # most packets retained

    def test_massive_overload_keeps_bounded_state(self):
        hp = HashPipe(cells_per_stage=32, stages=4, seed=2)
        hp.process_all(range(50_000))
        assert hp.occupancy() <= 4 * 32


class TestElasticSaturation:
    def test_light_counters_saturate_not_wrap(self):
        es = ElasticSketch(
            heavy_cells_per_stage=1, light_cells=4, stages=1, lambda_threshold=1
        )
        # Alternate two flows in one bucket: constant evictions push
        # counts into the 8-bit light part far past 255.
        for _ in range(2000):
            es.process(1)
            es.process(2)
        for key in (1, 2):
            assert 0 <= es.light.query(key) <= 255

    def test_flagged_records_never_lose_vs_truth(self):
        """A heavy-part estimate with the flag set adds the light part,
        so the estimate should not fall below the heavy vote alone."""
        es = ElasticSketch(heavy_cells_per_stage=4, light_cells=16, stages=1)
        for key in range(200):
            es.process(key % 20)
        for key in range(20):
            total, flagged, found = es._heavy_lookup(key)
            if found:
                assert es.query(key) >= total


class TestFlowRadarDecodeRobustness:
    def test_decode_never_reports_ghost_flows(self):
        """Even at hopeless load, peeling must not hallucinate keys that
        were never inserted (XOR cancellations could fabricate them;
        FlowCount reaching 1 with a mixed FlowXOR is the danger)."""
        fr = FlowRadar(counting_cells=50, seed=9)
        real = set(range(1, 301))
        for key in real:
            fr.process(key)
        decoded = fr.decode()
        ghosts = set(decoded) - real
        # Ghosts are theoretically possible but must be vanishingly rare
        # with 104-bit keys; any ghost would also carry a bogus count.
        assert len(ghosts) == 0

    def test_reset_after_overload_fully_recovers(self):
        fr = FlowRadar(counting_cells=64, seed=9)
        fr.process_all(range(1000))
        fr.reset()
        for _ in range(3):
            fr.process(42)
        assert fr.decode() == {42: 3}


class TestCounterOverflowBehaviour:
    def test_main_table_counts_to_large_values(self):
        hf = HashFlow(main_cells=16, seed=1)
        for _ in range(100_000):
            hf.process(7)
        assert hf.query(7) == 100_000  # 32-bit register range, no wrap here

    def test_ancillary_eight_bit_ceiling_blocks_promotion(self):
        """If every sentinel exceeds 255, an ancillary flow can never
        promote (its 8-bit counter saturates first) — the documented
        hardware constraint."""
        hf = HashFlow(main_cells=4, ancillary_cells=4, depth=1,
                      variant="multihash", seed=2)
        # Sentinels of ~1000 packets each.
        for key in range(40):
            for _ in range(1000):
                hf.process(key)
        resident = set(hf.records())
        attacker = 999_999
        for _ in range(5000):
            hf.process(attacker)
        assert hf.promotions == 0  # 255 saturates below every sentinel
        assert attacker not in hf.records()
        assert set(hf.records()) == resident

"""Algorithm 1's invariants as properties of HashFlow's one batched walk.

Each property runs over every kind of plane the update paths touch:
Python-list planes (the numpy tier) and the native C kernel's numpy
planes when a compiler is available — for both main-table variants,
with and without byte tracking, and in every promotion mode.  The same
grid runs once more behind the shard router
(:class:`~repro.netwide.sharding.ShardedCollector`), where each shard's
walk sees only the owner-sliced halves and sizes of the batch.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashflow import HashFlow
from repro.flow.batch import KeyBatch
from repro.native import native_available
from repro.netwide.sharding import ShardedCollector

PLANES = ["lists"] + (["native"] if native_available() else [])
PROMOTION_MODES = [
    {"promote": True, "clear_promoted": False},
    {"promote": True, "clear_promoted": True},
    {"promote": False, "clear_promoted": False},
]

#: Flow keys the streams draw from: full 104-bit keys, keys with a zero
#: high half (the mixers' single-round path), and keys that share their
#: low half with another key (only the high half tells them apart).
_rng = random.Random(2019)
POOL = [_rng.getrandbits(104) for _ in range(40)] + [
    _rng.getrandbits(64) for _ in range(8)
]
POOL += [key ^ (1 << 90) for key in POOL[:4]]

packets = st.lists(
    st.tuples(st.sampled_from(POOL), st.integers(40, 1500)),
    min_size=1,
    max_size=300,
)


def collector(planes: str, **params) -> HashFlow:
    """A small, easily saturated HashFlow over the requested planes."""
    return HashFlow(
        main_cells=12,
        ancillary_cells=6,
        kernel="native" if planes == "native" else "numpy",
        **params,
    )


def sharded(planes: str, **params) -> ShardedCollector:
    """Two HashFlow shards over the requested planes, behind the shard
    router; each holds half of :func:`collector`'s cells, so each still
    saturates on its half of the flows."""
    shard = dict(
        main_cells=6,
        ancillary_cells=3,
        kernel="native" if planes == "native" else "numpy",
        **params,
    )
    return ShardedCollector({"kind": "hashflow", "params": shard}, n_shards=2, seed=5)


def feed(c: HashFlow | ShardedCollector, stream, scalar: bool) -> None:
    if scalar:
        for key, size in stream:
            c.process(key, size)
    else:
        keys = [key for key, _ in stream]
        c.process_batch(KeyBatch(keys, sizes=np.array([s for _, s in stream])))


def meter(c: HashFlow | ShardedCollector) -> tuple[int, int, int, int]:
    return (c.meter.packets, c.meter.hashes, c.meter.reads, c.meter.writes)


@pytest.mark.parametrize("planes", PLANES)
@pytest.mark.parametrize("variant", ["pipelined", "multihash"])
@pytest.mark.parametrize("track_bytes", [False, True])
@pytest.mark.parametrize(
    "mode", PROMOTION_MODES, ids=["literal", "clear", "ablation"]
)
class TestAlgorithm1Invariants:
    @settings(max_examples=15, deadline=None)
    @given(packets)
    def test_walk_matches_scalar_contract(
        self, planes, variant, track_bytes, mode, stream
    ):
        """The batched walk and per-packet probe/offer/promote leave
        identical tables, promotions and meters."""
        params = dict(variant=variant, track_bytes=track_bytes, seed=7, **mode)
        walked, scalar = collector(planes, **params), collector(planes, **params)
        feed(walked, stream, scalar=False)
        feed(scalar, stream, scalar=True)
        assert walked.records() == scalar.records()
        assert walked.promotions == scalar.promotions
        assert meter(walked) == meter(scalar)
        if track_bytes:
            assert walked.byte_records() == scalar.byte_records()
        probes = POOL + [1 << 103]
        assert walked.query_batch(probes).tolist() == [
            scalar.query(k) for k in probes
        ]

    @settings(max_examples=15, deadline=None)
    @given(packets)
    def test_table_invariants(self, planes, variant, track_bytes, mode, stream):
        params = dict(variant=variant, track_bytes=track_bytes, seed=7, **mode)
        c = collector(planes, **params)
        feed(c, stream, scalar=False)
        records = c.records()
        # Probes never evict, so without control-plane evictions a flow
        # is never split: one occupied cell per resident key.
        assert len(records) == c.main.occupancy()
        assert set(records) <= {key for key, _ in stream}
        # Every ancillary offer costs two hashes and one read, and only
        # an offer can promote.
        assert c.promotions <= c.meter.hashes - c.meter.reads
        if not mode["promote"]:
            assert c.promotions == 0
        # Each packet writes exactly one cell (insert, increment,
        # ancillary store or promotion), plus the cleared cell of a
        # promotion under clear_promoted.
        cleared = c.promotions if mode["clear_promoted"] else 0
        assert c.meter.writes == len(stream) + cleared


@pytest.mark.parametrize("planes", PLANES)
def test_streams_reach_promotion(planes):
    """The property streams are not vacuous: the small tables saturate
    and promote."""
    stream = [(POOL[i % 20], 64) for i in range(20)] + [(POOL[39], 64)] * 40
    c = collector(planes)
    feed(c, stream, scalar=False)
    assert c.promotions > 0


@pytest.mark.parametrize("planes", PLANES)
@pytest.mark.parametrize("variant", ["pipelined", "multihash"])
@pytest.mark.parametrize("track_bytes", [False, True])
@pytest.mark.parametrize(
    "mode", PROMOTION_MODES, ids=["literal", "clear", "ablation"]
)
class TestShardedRoute:
    @settings(max_examples=15, deadline=None)
    @given(packets)
    def test_routed_walk_matches_scalar_routing(
        self, planes, variant, track_bytes, mode, stream
    ):
        """Owner-sliced sub-batches leave every shard exactly as
        per-packet routing does: tables, promotions, meters, bytes."""
        params = dict(variant=variant, track_bytes=track_bytes, seed=7, **mode)
        walked, scalar = sharded(planes, **params), sharded(planes, **params)
        feed(walked, stream, scalar=False)
        feed(scalar, stream, scalar=True)
        assert walked.records() == scalar.records()
        assert meter(walked) == meter(scalar)
        for s, shard in walked.shards.items():
            twin = scalar.shards[s]
            assert shard.records() == twin.records()
            assert shard.promotions == twin.promotions
            assert meter(shard) == meter(twin)
            # Only flows the router assigns to a shard reach it.
            assert all(walked.shard_of(key) == s for key in shard.records())
        probes = POOL + [1 << 103]
        assert walked.query_batch(probes).tolist() == [
            scalar.query(k) for k in probes
        ]
        if track_bytes:
            assert walked.byte_records() == scalar.byte_records()
            assert [walked.byte_query(k) for k in probes] == [
                scalar.byte_query(k) for k in probes
            ]


@pytest.mark.parametrize("planes", PLANES)
def test_sharded_streams_reach_promotion(planes):
    """The sharded route's streams saturate and promote too."""
    stream = [(POOL[i % 20], 64) for i in range(20)] + [(POOL[39], 64)] * 40
    c = sharded(planes)
    feed(c, stream, scalar=False)
    assert sum(shard.promotions for shard in c.shards.values()) > 0

"""Algorithm 1's invariants as properties of HashFlow's one batched walk.

Each property runs over every kind of plane the update paths touch:
Python-list planes (the numpy tier), numpy planes swapped in by
:func:`repro.shm.planes.adopt_planes` (what a numpy-tier shard walks
once its planes are shared; private arrays here, so hundreds of
examples hold no shared-memory descriptors), and the native C kernel
when a compiler is available — for both main-table variants, with and
without byte tracking, and in every promotion mode.
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
from repro.shm.planes import adopt_planes, plane_specs

PLANES = ["lists", "shared"] + (["native"] if native_available() else [])
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
    c = HashFlow(
        main_cells=12,
        ancillary_cells=6,
        kernel="native" if planes == "native" else "numpy",
        **params,
    )
    if planes == "shared":
        adopt_planes(c, [np.zeros(n, dtype) for n, dtype in plane_specs(c)])
    return c


def feed(c: HashFlow, stream, scalar: bool) -> None:
    if scalar:
        for key, size in stream:
            c.process(key, size)
    else:
        keys = [key for key, _ in stream]
        c.process_batch(KeyBatch(keys, sizes=np.array([s for _, s in stream])))


def meter(c: HashFlow) -> tuple[int, int, int, int]:
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

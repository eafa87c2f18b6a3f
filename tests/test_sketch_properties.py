"""HashPipe's and count-min's update rules as properties of their planes.

Each property runs on Python-list planes (the numpy tier's scalar and
batched walks) and on the native C kernels when a compiler is
available.  Streams draw from a key pool that includes *low-half
twins*: keys that differ only above bit 64, so a walk that compared
only the low 64-bit halves of two keys would merge their records.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.native import native_available
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashpipe import HashPipe

KERNELS = ["numpy"] + (["native"] if native_available() else [])

_rng = random.Random(2017)
POOL = [_rng.getrandbits(104) for _ in range(12)] + [
    _rng.getrandbits(64) for _ in range(4)
]
# Low-half twins of the first keys: equal low halves, distinct high halves.
POOL += [key ^ (1 << 64) for key in POOL[:6]]
POOL += [key ^ (1 << 100) for key in POOL[:6]]
#: Two keys and their twins, so twins often meet in one cell.
TWINS = [key ^ bit for key in POOL[:2] for bit in (0, 1 << 64, 1 << 100)]

keys = st.one_of(
    st.lists(st.sampled_from(POOL), min_size=1, max_size=200),
    st.lists(st.sampled_from(TWINS), min_size=1, max_size=100),
)


def chunked(stream: list[int], sizes: list[int]):
    """Consecutive slices of ``stream``, cycling through ``sizes``."""
    start = 0
    i = 0
    while start < len(stream):
        stop = start + sizes[i % len(sizes)]
        yield stream[start:stop]
        start = stop
        i += 1


def meter(c) -> tuple[int, int, int, int]:
    return (c.meter.packets, c.meter.hashes, c.meter.reads, c.meter.writes)


def pipe_planes(hp: HashPipe) -> list[np.ndarray]:
    """HashPipe's planes as arrays, on either tier."""
    return [
        np.asarray(hp.k_lo, dtype=np.uint64),
        np.asarray(hp.k_hi, dtype=np.uint64),
        np.asarray(hp.counts, dtype=np.int64),
    ]


@pytest.mark.parametrize("kernel", KERNELS)
class TestHashPipeProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        keys,
        st.lists(st.integers(1, 40), min_size=1, max_size=5),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_any_chunking_matches_per_key(self, kernel, stream, sizes, stages, cells):
        """Batched chunks and per-key updates leave identical planes,
        meters and query answers."""
        scalar = HashPipe(cells, stages=stages, seed=5, kernel=kernel)
        batched = HashPipe(cells, stages=stages, seed=5, kernel=kernel)
        for key in stream:
            scalar.process(key)
        for chunk in chunked(stream, sizes):
            batched.process_batch(chunk)
        for a, b in zip(pipe_planes(scalar), pipe_planes(batched)):
            assert np.array_equal(a, b)
        assert meter(scalar) == meter(batched)
        assert scalar.records() == batched.records()
        probes = POOL + [0, 1 << 103]
        assert batched.query_batch(probes).tolist() == [
            scalar.query(k) for k in probes
        ]

    @settings(max_examples=100, deadline=None)
    @given(keys, st.integers(1, 4), st.integers(1, 4), st.booleans())
    def test_table_invariants(self, kernel, stream, stages, cells, per_key):
        hp = HashPipe(cells, stages=stages, seed=9, kernel=kernel)
        if per_key:
            for key in stream:
                hp.process(key)
        else:
            hp.process_batch(stream)
        k_lo, k_hi, counts = pipe_planes(hp)
        for s in range(stages):
            resident = []
            for idx in range(s * cells, (s + 1) * cells):
                if counts[idx]:
                    key = (int(k_hi[idx]) << 64) | int(k_lo[idx])
                    # Only the cell its stage hash names holds a key.
                    assert s * cells + hp._hashes[s].bucket(key, cells) == idx
                    resident.append(key)
            assert len(resident) == len(set(resident))
        # Evicted carries lose packets; nothing adds any, and a flow's
        # partial records never hold another flow's packets.
        records = hp.records()
        assert sum(records.values()) <= hp.meter.packets
        truth = Counter(stream)
        for key, count in records.items():
            assert count <= truth[key]
            assert hp.query(key) == count
        # One hash and one read per probe; every packet writes its
        # stage-1 cell, and no probe writes more than once.
        m = hp.meter
        assert m.hashes == m.reads
        assert m.packets <= m.writes <= m.hashes


@pytest.mark.parametrize("kernel", KERNELS)
class TestCountMinProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        keys,
        st.integers(0, 40),
        st.booleans(),
        st.sampled_from([2, 5, 8, 62]),
        st.integers(1, 8),
        st.integers(1, 3),
    )
    def test_batch_matches_per_key(
        self, kernel, stream, amount, conservative, bits, width, depth
    ):
        """``add_batch`` leaves the rows and meter of per-key ``add``,
        saturation included, and the query paths agree."""
        params = dict(
            width=width, depth=depth, counter_bits=bits, seed=3,
            conservative=conservative, kernel=kernel,
        )
        scalar, batched = CountMinSketch(**params), CountMinSketch(**params)
        for key in stream:
            scalar.add(key, amount)
        batched.add_batch(stream, amount)
        assert np.array_equal(scalar.rows, batched.rows)
        assert meter(scalar) == meter(batched)
        assert batched.query_batch(POOL).tolist() == [scalar.query(k) for k in POOL]

    @settings(max_examples=60, deadline=None)
    @given(
        keys,
        st.integers(0, 40),
        st.sampled_from([2, 5, 8, 62]),
        st.integers(1, 8),
        st.integers(1, 3),
    )
    def test_estimates_bound_truth(self, kernel, stream, amount, bits, width, depth):
        params = dict(width=width, depth=depth, counter_bits=bits, seed=3, kernel=kernel)
        plain = CountMinSketch(**params)
        cons = CountMinSketch(conservative=True, **params)
        plain.add_batch(stream, amount)
        cons.add_batch(stream, amount)
        truth = Counter(stream)
        for cm in (plain, cons):
            rows = np.asarray(cm.rows)
            assert rows.max() <= cm.max_count
            if rows.max() < cm.max_count:
                # No counter saturated: count-min never underestimates.
                for key, count in truth.items():
                    assert cm.query(key) >= count * amount
        # Conservative update only ever skips increments.
        assert (cons.query_batch(POOL) <= plain.query_batch(POOL)).all()

"""Tests for repro.serve.codec: vectorized v5 <-> packet-array codec.

The contract under test: both directions are exact inverses of the
scalar pack/parse in repro.export.netflow_v5, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.export.netflow_v5 import (
    MAX_RECORDS_PER_DATAGRAM,
    NetFlowV5Exporter,
    encode_header,
    encode_record,
    parse_datagram,
)
from repro.flow.key import pack_key, unpack_key
from repro.hashing.mixers import keys_from_halves
from repro.serve.codec import decode_datagram, encode_datagrams


def sample_keys(n: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    return [
        pack_key(
            int(rng.integers(0, 1 << 32)),
            int(rng.integers(0, 1 << 32)),
            int(rng.integers(0, 1 << 16)),
            int(rng.integers(0, 1 << 16)),
            int(rng.integers(0, 1 << 8)),
        )
        for _ in range(n)
    ]


def halves(keys: list[int]):
    lo = np.array([k & ((1 << 64) - 1) for k in keys], dtype=np.uint64)
    hi = np.array([k >> 64 for k in keys], dtype=np.uint64)
    return lo, hi


class TestEncode:
    def test_matches_scalar_parse(self):
        keys = sample_keys(45)
        lo, hi = halves(keys)
        sizes = np.arange(45, dtype=np.int64) + 40
        times_ms = np.arange(45, dtype=np.float64) * 2.0
        datagrams = encode_datagrams(lo, hi, sizes, times_ms)
        assert len(datagrams) == 2  # 30 + 15
        parsed = []
        for datagram in datagrams:
            parsed.extend(parse_datagram(datagram)[1])
        assert [r.key for r in parsed] == keys
        assert [r.octets for r in parsed] == sizes.tolist()
        assert [r.first_ms for r in parsed] == times_ms.astype(int).tolist()
        assert all(r.packets == 1 for r in parsed)

    def test_flow_sequence_counts_records_across_datagrams(self):
        keys = sample_keys(MAX_RECORDS_PER_DATAGRAM + 5)
        lo, hi = halves(keys)
        sizes = np.full(len(keys), 40, dtype=np.int64)
        ms = np.zeros(len(keys), dtype=np.float64)
        datagrams = encode_datagrams(lo, hi, sizes, ms, flow_sequence=100)
        header0 = parse_datagram(datagrams[0])[0]
        header1 = parse_datagram(datagrams[1])[0]
        assert header0["flow_sequence"] == 100
        assert header1["flow_sequence"] == 100 + MAX_RECORDS_PER_DATAGRAM


class TestDecode:
    def test_inverts_scalar_exporter(self):
        keys = sample_keys(30, seed=1)
        records = {k: 1 for k in keys}
        datagram = NetFlowV5Exporter(mean_packet_bytes=100).export(records)[0]
        lo, hi, sizes, _ = decode_datagram(datagram)
        assert keys_from_halves(lo, hi) == sorted(records)
        assert sizes.tolist() == [100] * 30

    def test_round_trips_encode(self):
        keys = sample_keys(40, seed=2)
        lo, hi = halves(keys)
        sizes = np.arange(40, dtype=np.int64) + 64
        times_ms = np.arange(40, dtype=np.float64) * 2.0
        for datagram in encode_datagrams(lo, hi, sizes, times_ms):
            out_lo, out_hi, out_sizes, out_ts = decode_datagram(datagram)
            n = len(out_lo)
            np.testing.assert_array_equal(out_lo, lo[:n])
            np.testing.assert_array_equal(out_hi, hi[:n])
            np.testing.assert_array_equal(out_sizes, sizes[:n])
            # ms / 1000.0, exactly.
            np.testing.assert_array_equal(out_ts, times_ms[:n] / 1000.0)
            lo, hi, sizes, times_ms = lo[n:], hi[n:], sizes[n:], times_ms[n:]

    def test_halves_match_key_split(self):
        keys = sample_keys(20, seed=3)
        datagram = NetFlowV5Exporter().export({k: 1 for k in keys})[0]
        lo, hi = decode_datagram(datagram)[:2]
        expected = [(k & ((1 << 64) - 1), k >> 64) for k in sorted(keys)]
        assert list(zip(lo.tolist(), hi.tolist())) == expected

    def test_aggregated_record_expands_to_packets(self):
        key = pack_key(0x0A000001, 0x0B000002, 1234, 80, 6)
        datagram = encode_header(1) + encode_record(
            key, packets=5, octets=500, first_ms=250
        )
        lo, hi, sizes, ts = decode_datagram(datagram)
        assert len(lo) == 5
        assert keys_from_halves(lo, hi) == [key] * 5
        assert sizes.tolist() == [100] * 5
        assert ts.tolist() == [0.25] * 5

    def test_non_v5_datagram_is_none(self):
        assert decode_datagram(b"junk") is None
        v9 = (9).to_bytes(2, "big") + b"\x00" * 22
        assert decode_datagram(v9) is None

    def test_truncated_trailing_record_excluded(self):
        keys = sample_keys(3, seed=4)
        datagram = NetFlowV5Exporter().export({k: 1 for k in keys})[0]
        lo, _, _, _ = decode_datagram(datagram[:-10])
        assert len(lo) == 2


class TestEncodeRecordScalar:
    def test_encode_record_round_trips_key(self):
        key = pack_key(0xC0A80001, 0x08080808, 443, 51515, 17)
        datagram = encode_header(1, sys_uptime_ms=9) + encode_record(
            key, packets=3, octets=180, first_ms=10, last_ms=20
        )
        header, records = parse_datagram(datagram)
        assert header["sys_uptime"] == 9
        assert records[0].key == key
        assert unpack_key(records[0].key) == unpack_key(key)
        assert (records[0].packets, records[0].octets) == (3, 180)
        assert (records[0].first_ms, records[0].last_ms) == (10, 20)

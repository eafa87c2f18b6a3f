"""Tests for repro.export.netflow_v5, the one NetFlow v5 codec.

Covers the exporter and record parsers, the live listener's burst
decoder ``decode_datagrams`` (and its one-datagram form
``decode_datagram``) and the replayer's ``encode_datagrams``.  Round
trips cannot catch a field swapped on both sides of one codec, so
``TestGoldenBytes`` pins the wire layout against bytes packed here
with ``struct`` from the v5 field table.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.export.netflow_v5 import (
    HEADER_BYTES,
    MAX_RECORDS_PER_DATAGRAM,
    RECORD_BYTES,
    NetFlowV5Exporter,
    NetFlowV5Record,
    decode_datagram,
    decode_datagrams,
    encode_datagrams,
    encode_header,
    encode_records,
    parse_datagram,
    parse_datagram_partial,
    parse_stream,
    parse_stream_records,
    split_datagram,
    split_stream,
)
from repro.flow.key import pack_key, unpack_key
from repro.hashing.mixers import MASK64, keys_from_halves
from repro.stream.records import FlowRecord, RecordBatch


def sample_records(n: int) -> dict[int, int]:
    return {
        pack_key(0x0A000000 + i, 0x0B000000 + i, 1000 + i, 80, 6): i + 1
        for i in range(n)
    }


def batch(counts, octets=None, times_ms=None) -> RecordBatch:
    """``{key: packets}`` as a record batch, with optional measured
    ``{key: octets}`` and SysUptime ``{key: (first_ms, last_ms)}``."""
    octets, times_ms = octets or {}, times_ms or {}
    flows = []
    for key, packets in counts.items():
        first = last = None
        if key in times_ms:
            first, last = (ms / 1000.0 for ms in times_ms[key])
        flows.append(FlowRecord(key, packets, first, last, octets=octets.get(key)))
    return RecordBatch.from_records(flows)


def record_bytes(key, packets, octets, first_ms=0, last_ms=0) -> bytes:
    """One 48-byte v5 record for a packed flow key."""
    return encode_records(
        [key & MASK64], [key >> 64], packets, octets, first_ms, last_ms
    ).tobytes()


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


class TestExport:
    def test_wire_sizes(self):
        assert HEADER_BYTES == 24
        assert RECORD_BYTES == 48

    def test_single_datagram(self):
        exporter = NetFlowV5Exporter()
        datagrams = exporter.export(batch(sample_records(5)))
        assert len(datagrams) == 1
        assert len(datagrams[0]) == 24 + 5 * 48

    def test_datagram_splitting_at_30(self):
        exporter = NetFlowV5Exporter()
        datagrams = exporter.export(batch(sample_records(65)))
        assert len(datagrams) == 3
        header0, _ = parse_datagram(datagrams[0])
        header2, _ = parse_datagram(datagrams[2])
        assert header0["count"] == MAX_RECORDS_PER_DATAGRAM
        assert header2["count"] == 5

    def test_flow_sequence_increments(self):
        exporter = NetFlowV5Exporter()
        exporter.export(batch(sample_records(10)))
        datagrams = exporter.export(batch(sample_records(3)))
        header, _ = parse_datagram(datagrams[0])
        assert header["flow_sequence"] == 10

    def test_empty_records(self):
        assert NetFlowV5Exporter().export(batch({})) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine_id": 256},
            {"sampling_interval": 1 << 14},
            {"mean_packet_bytes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NetFlowV5Exporter(**kwargs)


class TestRoundTrip:
    def test_records_survive(self):
        records = sample_records(42)
        exporter = NetFlowV5Exporter()
        assert parse_stream(exporter.export(batch(records))) == records

    @settings(max_examples=20, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 0xFFFF),
                st.integers(0, 0xFFFF),
                st.integers(0, 0xFF),
            ),
            st.integers(1, 100_000),
            max_size=70,
        )
    )
    def test_roundtrip_property(self, tuples):
        records = {pack_key(*t): count for t, count in tuples.items()}
        exporter = NetFlowV5Exporter()
        assert parse_stream(exporter.export(batch(records))) == records

    def test_octets_synthesized_from_mean(self):
        exporter = NetFlowV5Exporter(mean_packet_bytes=100)
        key = pack_key(1, 2, 3, 4, 6)
        _, parsed = parse_datagram(exporter.export(batch({key: 7}))[0])
        assert parsed[0].octets == 700

    def test_header_metadata(self):
        exporter = NetFlowV5Exporter(engine_id=9, sampling_interval=100)
        datagram = exporter.export(
            batch(sample_records(1)), sys_uptime_ms=5000, unix_secs=1234
        )[0]
        header, _ = parse_datagram(datagram)
        assert header["engine_id"] == 9
        assert header["sampling_interval"] == 100
        assert header["sys_uptime"] == 5000
        assert header["unix_secs"] == 1234


class TestParseErrors:
    def test_short_datagram(self):
        with pytest.raises(ValueError, match="shorter"):
            parse_datagram(b"\x00" * 10)

    def test_wrong_version(self):
        data = (9).to_bytes(2, "big") + b"\x00" * 22
        with pytest.raises(ValueError, match="version"):
            parse_datagram(data)

    def test_truncated_records(self):
        good = NetFlowV5Exporter().export(batch(sample_records(2)))[0]
        with pytest.raises(ValueError, match="truncated"):
            parse_datagram(good[:-10])


class TestTolerantParsing:
    """split_datagram / parse_datagram_partial: the live listener's
    never-raise front end."""

    def test_split_short_datagram_is_none(self):
        assert split_datagram(b"\x00" * 10) is None

    def test_split_other_version_is_none(self):
        v9 = (9).to_bytes(2, "big") + b"\x00" * 22
        assert split_datagram(v9) is None

    def test_split_complete_datagram(self):
        datagram = NetFlowV5Exporter().export(batch(sample_records(3)))[0]
        header, payload = split_datagram(datagram)
        assert header["count"] == 3
        assert len(payload) == 3 * RECORD_BYTES

    def test_split_excludes_truncated_trailing_record(self):
        datagram = NetFlowV5Exporter().export(batch(sample_records(3)))[0]
        header, payload = split_datagram(datagram[:-10])
        assert header["count"] == 3  # the header still claims 3
        assert len(payload) == 2 * RECORD_BYTES  # only 2 are whole

    def test_split_caps_payload_at_header_count(self):
        # Trailing garbage beyond the claimed count is not decoded.
        datagram = NetFlowV5Exporter().export(batch(sample_records(2)))[0]
        header, payload = split_datagram(datagram + b"\x00" * RECORD_BYTES)
        assert header["count"] == 2
        assert len(payload) == 2 * RECORD_BYTES

    def test_partial_matches_strict_on_good_datagrams(self):
        records = sample_records(7)
        datagram = NetFlowV5Exporter().export(batch(records))[0]
        strict_header, strict_records = parse_datagram(datagram)
        header, parsed, consumed = parse_datagram_partial(datagram)
        assert header == strict_header
        assert parsed == strict_records
        assert consumed == len(datagram)

    def test_partial_keeps_complete_records_of_truncated_datagram(self):
        records = sample_records(5)
        datagram = NetFlowV5Exporter().export(batch(records))[0]
        truncated = datagram[: HEADER_BYTES + 3 * RECORD_BYTES + 7]
        header, parsed, consumed = parse_datagram_partial(truncated)
        assert header["count"] == 5
        assert len(parsed) == 3
        assert consumed == HEADER_BYTES + 3 * RECORD_BYTES
        assert {r.key: r.packets for r in parsed}.items() <= records.items()

    def test_partial_rejects_non_v5_quietly(self):
        assert parse_datagram_partial(b"junk") == (None, [], 0)
        v9 = (9).to_bytes(2, "big") + b"\x00" * 22
        assert parse_datagram_partial(v9) == (None, [], 0)

    def test_strict_parser_still_raises_on_truncation(self):
        # parse_datagram keeps its contract: archival reads must fail
        # loudly where the live path degrades gracefully.
        datagram = NetFlowV5Exporter().export(batch(sample_records(2)))[0]
        with pytest.raises(ValueError, match="truncated"):
            parse_datagram(datagram[:-10])
        header, parsed, _ = parse_datagram_partial(datagram[:-10])
        assert len(parsed) == 1


class TestMeasuredFields:
    """dOctets / first / last precedence: measured values win, the
    mean-packet-size / sys_uptime estimates stay as fallbacks."""

    def test_measured_octets_override_estimate(self):
        exporter = NetFlowV5Exporter(mean_packet_bytes=100)
        a, b = pack_key(1, 2, 3, 4, 6), pack_key(5, 6, 7, 8, 17)
        datagrams = exporter.export(batch({a: 7, b: 2}, octets={a: 999}))
        parsed = {r.key: r for r in parse_datagram(datagrams[0])[1]}
        assert parsed[a].octets == 999  # measured wins
        assert parsed[b].octets == 200  # estimate fallback

    def test_times_ms_override_uptime(self):
        exporter = NetFlowV5Exporter()
        a, b = pack_key(1, 2, 3, 4, 6), pack_key(5, 6, 7, 8, 17)
        datagrams = exporter.export(
            batch({a: 1, b: 1}, times_ms={a: (1234, 4321)}), sys_uptime_ms=5000
        )
        parsed = {r.key: r for r in parse_datagram(datagrams[0])[1]}
        assert (parsed[a].first_ms, parsed[a].last_ms) == (1234, 4321)
        assert (parsed[b].first_ms, parsed[b].last_ms) == (5000, 5000)

    def test_export_flows_round_trips_flow_timing(self):
        from repro.stream.records import FlowRecord

        flow = FlowRecord(
            key=pack_key(9, 9, 9, 9, 6), packets=4,
            first_seen=1.2345, last_seen=6.789, reason="inactive",
            octets=2800,
        )
        datagrams = NetFlowV5Exporter().export(RecordBatch.from_records([flow]))
        record = parse_datagram(datagrams[0])[1][0]
        assert record.packets == 4
        assert record.octets == 2800
        assert record.first_ms == round(1.2345 * 1000)
        assert record.last_ms == round(6.789 * 1000)

    def test_export_flows_keeps_timing_measured_at_zero(self):
        # A flow whose only packet arrives at t=0.0 has real timing;
        # it must not fall back to the header uptime.
        from repro.stream.records import FlowRecord

        flow = FlowRecord(
            key=pack_key(9, 9, 9, 9, 6), packets=1,
            first_seen=0.0, last_seen=0.0, reason="inactive",
        )
        datagrams = NetFlowV5Exporter().export(
            RecordBatch.from_records([flow]), sys_uptime_ms=99_999
        )
        record = parse_datagram(datagrams[0])[1][0]
        assert (record.first_ms, record.last_ms) == (0, 0)

    def test_export_flows_untracked_timing_falls_back(self):
        from repro.stream.records import FlowRecord

        flow = FlowRecord(key=pack_key(9, 9, 9, 9, 6), packets=1, reason="epoch")
        datagrams = NetFlowV5Exporter().export(
            RecordBatch.from_records([flow]), sys_uptime_ms=5000
        )
        record = parse_datagram(datagrams[0])[1][0]
        assert (record.first_ms, record.last_ms) == (5000, 5000)

    def test_export_flows_partially_measured_octets_use_estimate(self):
        # One measured segment + one unmeasured segment: a partial sum
        # would under-report, so the whole flow uses the estimate.
        from repro.stream.records import FlowRecord

        key = pack_key(9, 9, 9, 9, 6)
        flows = [
            FlowRecord(key=key, packets=3, octets=300),
            FlowRecord(key=key, packets=5),
        ]
        exporter = NetFlowV5Exporter(mean_packet_bytes=100)
        datagrams = exporter.export(RecordBatch.from_records(flows))
        record = parse_datagram(datagrams[0])[1][0]
        assert record.packets == 8
        assert record.octets == 800  # 8 packets * 100 B estimate

    def test_export_flows_merges_duplicate_keys(self):
        from repro.stream.records import FlowRecord

        key = pack_key(9, 9, 9, 9, 6)
        flows = [
            FlowRecord(key=key, packets=3, first_seen=1.0, last_seen=2.0,
                       octets=300),
            FlowRecord(key=key, packets=5, first_seen=4.0, last_seen=9.0,
                       octets=500),
        ]
        datagrams = NetFlowV5Exporter().export(RecordBatch.from_records(flows))
        record = parse_datagram(datagrams[0])[1][0]
        assert record.packets == 8
        assert record.octets == 800
        assert (record.first_ms, record.last_ms) == (1000, 9000)


class TestTimeoutExportWiring:
    """Timeout rotation's first/last seen reach the v5 first/last fields."""

    @staticmethod
    def run(trace, main_cells, **timeouts):
        from repro.stream import Pipeline

        pipeline = Pipeline(
            source={"kind": "synthetic",
                    "params": {"profile": "caida", "n_flows": 16}},
            collector={"kind": "hashflow",
                       "params": {"main_cells": main_cells, "seed": 1}},
            rotation={"kind": "timeout", "params": timeouts},
            sinks=[{"kind": "netflow_v5"}],
            packet_rate=1000.0,
        )
        return pipeline.run(trace=trace), pipeline.sinks[0]

    def test_exported_records_carry_their_timing(self):
        from repro.traces.trace import Trace

        key = pack_key(10, 20, 30, 40, 6)
        trace = Trace([key], np.zeros(3, dtype=np.int64),
                      timestamps=np.array([0.25, 0.5, 2.0]))
        _, sink = self.run(trace, 256, inactive_timeout=1.0,
                           active_timeout=60.0, expiry_interval=10_000)
        parsed = {r.key: r for r in parse_datagram(sink.datagrams[0])[1]}
        assert parsed[key].first_ms == 250
        assert parsed[key].last_ms == 2000
        assert parsed[key].packets == 3

    def test_round_trip_through_full_expiry_run(self, small_trace):
        # Untimestamped trace: the pipeline clocks it by packet index
        # (packet_rate=1000, so packet i arrives at i/1000 s).
        result, sink = self.run(small_trace, 4096, inactive_timeout=0.5,
                                active_timeout=30.0, expiry_interval=256)
        assert result.rotations > 0
        assert sink.parse_back() == result.records
        # Timing fields are populated (not the pre-wiring zeros).
        _, records = parse_datagram(sink.datagrams[0])
        assert any(r.last_ms > 0 for r in records)


class TestCollectorIntegration:
    def test_export_hashflow_records(self, small_trace):
        from repro.core.hashflow import HashFlow

        hf = HashFlow(main_cells=4096, seed=1)
        hf.process_all(small_trace.keys())
        records = hf.records()
        merged = parse_stream(NetFlowV5Exporter().export(batch(records)))
        assert merged == records

    def test_byte_tracking_hashflow_populates_octets(self, small_trace):
        from repro.core.hashflow import HashFlow

        hf = HashFlow(main_cells=8192, seed=1, track_bytes=True)
        hf.process_all(small_trace.key_batch(sizes=123))
        records = hf.records()
        datagrams = NetFlowV5Exporter(mean_packet_bytes=700).export(
            batch(records, octets=hf.byte_records())
        )
        for datagram in datagrams:
            for record in parse_datagram(datagram)[1]:
                # Measured 123 B packets, not the 700 B estimate.
                assert record.octets % 123 == 0


class TestTruncationFuzz:
    """The tolerant front end under every possible wire truncation.

    A UDP datagram can be cut at any byte by the network (or by the
    ``datagram_chaos`` fault); whatever arrives, ``split_datagram`` /
    ``parse_datagram_partial`` must never raise and must never
    fabricate a record that was not in the original payload.
    """

    def test_every_cut_offset_is_safe(self):
        records = sample_records(5)
        datagram = NetFlowV5Exporter().export(batch(records))[0]
        _, truth = parse_datagram(datagram)
        for cut in range(len(datagram) + 1):
            prefix = datagram[:cut]
            split = split_datagram(prefix)
            header, parsed, consumed = parse_datagram_partial(prefix)
            if cut < HEADER_BYTES:
                assert split is None
                assert (header, parsed, consumed) == (None, [], 0)
                continue
            whole = min(5, (cut - HEADER_BYTES) // RECORD_BYTES)
            assert header["count"] == 5
            assert consumed == HEADER_BYTES + whole * RECORD_BYTES
            assert consumed <= cut
            # Exactly the records whose bytes fully arrived — an exact
            # prefix of the original, nothing fabricated.
            assert parsed == truth[:whole]

    @settings(max_examples=200, deadline=None)
    @given(
        n_records=st.integers(min_value=1, max_value=12),
        cut=st.integers(min_value=0, max_value=1024),
        junk=st.binary(max_size=64),
    )
    def test_cut_then_junk_never_raises_or_fabricates(self, n_records, cut, junk):
        datagram = NetFlowV5Exporter().export(batch(sample_records(n_records)))[0]
        _, truth = parse_datagram(datagram)
        mangled = datagram[: min(cut, len(datagram))] + junk
        header, parsed, consumed = parse_datagram_partial(mangled)
        if header is None:
            assert (parsed, consumed) == ([], 0)
        else:
            assert consumed <= len(mangled)
            assert len(parsed) <= header["count"]
            # Records drawn from intact original bytes are the truth
            # prefix; junk bytes may decode to garbage records, but a
            # whole untouched record is never altered or reordered.
            intact = max(
                0, min(len(parsed), (min(cut, len(datagram)) - HEADER_BYTES))
                // RECORD_BYTES
            )
            assert parsed[:intact] == truth[:intact]

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=256))
    def test_arbitrary_bytes_never_raise(self, blob):
        split = split_datagram(blob)
        header, parsed, consumed = parse_datagram_partial(blob)
        if split is None:
            assert (header, parsed, consumed) == (None, [], 0)
        else:
            assert 0 <= consumed <= len(blob)
            assert len(parsed) * RECORD_BYTES == consumed - HEADER_BYTES

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5), max_size=4),
        cut=st.integers(min_value=0, max_value=64),
    )
    def test_split_stream_rejects_any_truncation_loudly(self, sizes, cut):
        # split_stream is the strict archival inverse: whole streams
        # round-trip, any shortened stream is a ValueError — never a
        # silent partial read, never a different exception.
        exporter = NetFlowV5Exporter()
        datagrams = [exporter.export(batch(sample_records(n)))[0] for n in sizes]
        stream = b"".join(datagrams)
        assert split_stream(stream) == datagrams
        if stream:
            shortened = stream[: -min(max(cut, 1), len(stream))]
            try:
                again = split_stream(shortened)
            except ValueError:
                pass
            else:
                # A cut that lands exactly on a datagram boundary is a
                # valid (shorter) stream.
                assert b"".join(again) == shortened


class TestReplayEncode:
    """encode_datagrams: the replayer's one-record-per-packet encoder."""

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


class TestLiveDecode:
    """decode_datagram: the listener's datagram -> ring-array decode."""

    def test_inverts_scalar_exporter(self):
        keys = sample_keys(30, seed=1)
        records = {k: 1 for k in keys}
        datagram = NetFlowV5Exporter(mean_packet_bytes=100).export(batch(records))[0]
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
        datagram = NetFlowV5Exporter().export(batch({k: 1 for k in keys}))[0]
        lo, hi = decode_datagram(datagram)[:2]
        expected = [(k & ((1 << 64) - 1), k >> 64) for k in sorted(keys)]
        assert list(zip(lo.tolist(), hi.tolist())) == expected

    def test_aggregated_record_expands_to_packets(self):
        key = pack_key(0x0A000001, 0x0B000002, 1234, 80, 6)
        datagram = encode_header(1) + record_bytes(
            key, packets=5, octets=500, first_ms=250, last_ms=250
        )
        lo, hi, sizes, ts = decode_datagram(datagram)
        assert len(lo) == 5
        assert keys_from_halves(lo, hi) == [key] * 5
        assert sizes.tolist() == [100] * 5
        assert ts.tolist() == [0.25] * 5

    def test_aggregated_record_keeps_every_byte(self):
        # dOctets % dPkts leftover bytes go to the first packets, so the
        # expanded sizes sum to dOctets (3 x 33 would lose a byte).
        a = pack_key(0x0A000001, 0x0B000002, 1234, 80, 6)
        b = pack_key(0x0A000003, 0x0B000004, 4321, 443, 17)
        datagram = (
            encode_header(3)
            + record_bytes(a, packets=3, octets=100)
            + record_bytes(b, packets=1, octets=7)
            + record_bytes(a, packets=4, octets=6)
        )
        lo, hi, sizes, _ = decode_datagram(datagram)
        assert keys_from_halves(lo, hi) == [a] * 3 + [b] + [a] * 4
        assert sizes.tolist() == [34, 33, 33, 7, 2, 2, 1, 1]

    def test_non_v5_datagram_is_none(self):
        assert decode_datagram(b"junk") is None
        v9 = (9).to_bytes(2, "big") + b"\x00" * 22
        assert decode_datagram(v9) is None

    def test_truncated_trailing_record_excluded(self):
        keys = sample_keys(3, seed=4)
        datagram = NetFlowV5Exporter().export(batch({k: 1 for k in keys}))[0]
        lo, _, _, _ = decode_datagram(datagram[:-10])
        assert len(lo) == 2


KEYS = st.integers(min_value=0, max_value=(1 << 104) - 1)
U32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


@st.composite
def v5_datagrams(draw, aggregated: bool = False) -> bytes:
    """A whole v5 datagram of 0-30 records.  ``aggregated`` records
    carry ``dPkts > 1`` and a ``dOctets`` that ``dPkts`` does not
    divide, so the expansion must hand out leftover bytes."""
    n = draw(st.integers(1 if aggregated else 0, MAX_RECORDS_PER_DATAGRAM))
    keys = draw(st.lists(KEYS, min_size=n, max_size=n))
    if aggregated:
        packets = draw(st.lists(st.integers(2, 20), min_size=n, max_size=n))
        octets = [
            p * draw(st.integers(0, 1 << 20)) + draw(st.integers(1, p - 1))
            for p in packets
        ]
    else:
        packets = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        octets = draw(st.lists(U32, min_size=n, max_size=n))
    first_ms = draw(st.lists(U32, min_size=n, max_size=n))
    lo, hi = halves(keys)
    body = encode_records(lo, hi, packets, octets, first_ms, first_ms).tobytes()
    return encode_header(n) + body


#: Every kind of datagram a listener's socket burst may hold.
BURST_DATAGRAMS = st.one_of(
    v5_datagrams(),
    v5_datagrams(aggregated=True),
    # v5 cut at any offset (inside the header too).
    st.tuples(v5_datagrams(), st.integers(0, 1500)).map(lambda t: t[0][: t[1]]),
    st.binary(max_size=HEADER_BYTES - 1),
    # Another NetFlow version over a body that would decode as v5.
    st.tuples(v5_datagrams(), st.integers(0, 0xFFFF).filter(lambda v: v != 5)).map(
        lambda t: t[1].to_bytes(2, "big") + t[0][2:]
    ),
    # Random bytes that do not claim version 5: a random v5 header
    # could declare up to 2^32 packets per record.
    st.binary(max_size=400).filter(lambda b: b[:2] != b"\x00\x05"),
)


def reference_packets(datagram: bytes) -> list[tuple[int, int, float]]:
    """Plain-Python decode of one datagram: ``(key, size, timestamp)``
    per packet, each record expanded to ``max(dPkts, 1)`` packets
    whose sizes sum to ``dOctets``."""
    _, records, _ = parse_datagram_partial(datagram)
    rows = []
    for record in records:
        n = max(record.packets, 1)
        for i in range(n):
            size = record.octets // n + (i < record.octets % n)
            rows.append((record.key, size, record.first_ms / 1000.0))
    return rows


class TestBurstDecode:
    """decode_datagrams: one decode per socket burst, pinned to the
    one-datagram decode and to a plain-Python reference."""

    @settings(max_examples=150, deadline=None)
    @given(burst=st.lists(BURST_DATAGRAMS, max_size=8))
    def test_burst_equals_its_datagrams_decoded_one_by_one(self, burst):
        decoded = decode_datagrams(burst)
        parts = [part for part in map(decode_datagram, burst) if part is not None]
        if not parts:
            assert decoded is None
            return
        assert len(decoded) == 4
        for column, pieces in zip(decoded, zip(*parts)):
            expected = np.concatenate(pieces)
            assert column.dtype == expected.dtype
            np.testing.assert_array_equal(column, expected)

    @settings(max_examples=150, deadline=None)
    @given(burst=st.lists(BURST_DATAGRAMS, max_size=8))
    def test_burst_matches_plain_python_reference(self, burst):
        expected = [row for datagram in burst for row in reference_packets(datagram)]
        decoded = decode_datagrams(burst)
        if decoded is None:
            assert all(split_datagram(d) is None for d in burst)
            return
        lo, hi, sizes, timestamps = decoded
        assert (lo.dtype, hi.dtype, sizes.dtype, timestamps.dtype) == (
            np.uint64, np.uint64, np.int64, np.float64
        )
        got = list(zip(keys_from_halves(lo, hi), sizes.tolist(), timestamps.tolist()))
        assert got == expected

    def test_nothing_decodable_is_none(self):
        v9 = (9).to_bytes(2, "big") + b"\x00" * 22
        assert decode_datagrams([]) is None
        assert decode_datagrams([b"junk", v9, b""]) is None

    def test_empty_v5_datagrams_are_empty_arrays(self):
        # A v5 datagram of no records decodes (to nothing); only a
        # burst without any v5 datagram is None.
        lo, hi, sizes, timestamps = decode_datagrams([encode_header(0), b"junk"])
        assert [len(lo), len(hi), len(sizes), len(timestamps)] == [0, 0, 0, 0]
        assert (lo.dtype, hi.dtype, sizes.dtype, timestamps.dtype) == (
            np.uint64, np.uint64, np.int64, np.float64
        )


class TestEncodeRecords:
    def test_one_record_round_trips_key(self):
        key = pack_key(0xC0A80001, 0x08080808, 443, 51515, 17)
        datagram = encode_header(1, sys_uptime_ms=9) + record_bytes(
            key, packets=3, octets=180, first_ms=10, last_ms=20
        )
        header, records = parse_datagram(datagram)
        assert header["sys_uptime"] == 9
        assert records[0].key == key
        assert unpack_key(records[0].key) == unpack_key(key)
        assert (records[0].packets, records[0].octets) == (3, 180)
        assert (records[0].first_ms, records[0].last_ms) == (10, 20)


#: The v5 wire layout, field by field, as the NetFlow v5 format defines it.
V5_HEADER = struct.Struct(
    "!H"  # version
    "H"  # count
    "I"  # sys_uptime (ms)
    "I"  # unix_secs
    "I"  # unix_nsecs
    "I"  # flow_sequence
    "B"  # engine_type
    "B"  # engine_id
    "H"  # sampling_interval
)
V5_RECORD = struct.Struct(
    "!I"  # srcaddr
    "I"  # dstaddr
    "I"  # nexthop
    "H"  # input ifIndex
    "H"  # output ifIndex
    "I"  # dPkts
    "I"  # dOctets
    "I"  # First (SysUptime ms)
    "I"  # Last (SysUptime ms)
    "H"  # srcport
    "H"  # dstport
    "B"  # pad1
    "B"  # tcp_flags
    "B"  # prot
    "B"  # tos
    "H"  # src_as
    "H"  # dst_as
    "B"  # src_mask
    "B"  # dst_mask
    "H"  # pad2
)

SRC, DST, SPORT, DPORT, PROTO = 0x0A141E28, 0xC0A80102, 51515, 443, 17
KEY = pack_key(SRC, DST, SPORT, DPORT, PROTO)
PACKETS, OCTETS, FIRST, LAST = 7, 9001, 123_456, 234_567
UPTIME, UNIX_SECS, SEQUENCE, ENGINE, SAMPLING = 345_678, 1_700_000_000, 42, 9, 100

GOLDEN_HEADER = V5_HEADER.pack(5, 1, UPTIME, UNIX_SECS, 0, SEQUENCE, 0, ENGINE, SAMPLING)
GOLDEN_RECORD = V5_RECORD.pack(
    SRC, DST, 0, 0, 0, PACKETS, OCTETS, FIRST, LAST, SPORT, DPORT,
    0, 0, PROTO, 0, 0, 0, 0, 0, 0,
)
GOLDEN = GOLDEN_HEADER + GOLDEN_RECORD
GOLDEN_FIELDS = {
    "version": 5, "count": 1, "sys_uptime": UPTIME, "unix_secs": UNIX_SECS,
    "flow_sequence": SEQUENCE, "engine_id": ENGINE,
    "sampling_interval": SAMPLING,
}


class TestGoldenBytes:
    """Both directions against bytes packed independently of the codec."""

    def test_header_layout(self):
        assert (V5_HEADER.size, V5_RECORD.size) == (HEADER_BYTES, RECORD_BYTES)
        assert encode_header(1, UPTIME, UNIX_SECS, SEQUENCE, ENGINE, SAMPLING) == (
            GOLDEN_HEADER
        )

    def test_exporter_writes_golden_datagram(self):
        exporter = NetFlowV5Exporter(engine_id=ENGINE, sampling_interval=SAMPLING)
        exporter.flow_sequence = SEQUENCE
        datagrams = exporter.export(
            batch({KEY: PACKETS}, octets={KEY: OCTETS}, times_ms={KEY: (FIRST, LAST)}),
            sys_uptime_ms=UPTIME, unix_secs=UNIX_SECS,
        )
        assert datagrams == [GOLDEN]

    def test_encode_records_writes_golden_record(self):
        assert record_bytes(KEY, PACKETS, OCTETS, FIRST, LAST) == GOLDEN_RECORD

    def test_replay_encoder_writes_golden_datagram(self):
        datagrams = encode_datagrams(
            np.array([KEY & ((1 << 64) - 1)], dtype=np.uint64),
            np.array([KEY >> 64], dtype=np.uint64),
            np.array([OCTETS]),
            np.array([FIRST]),
            flow_sequence=SEQUENCE,
            engine_id=ENGINE,
        )
        assert datagrams == [
            V5_HEADER.pack(5, 1, FIRST, 0, 0, SEQUENCE, 0, ENGINE, 0)
            + V5_RECORD.pack(
                SRC, DST, 0, 0, 0, 1, OCTETS, FIRST, FIRST, SPORT, DPORT,
                0, 0, PROTO, 0, 0, 0, 0, 0, 0,
            )
        ]

    def test_parsers_read_golden_datagram(self):
        record = NetFlowV5Record(KEY, PACKETS, OCTETS, FIRST, LAST)
        assert parse_datagram(GOLDEN) == (GOLDEN_FIELDS, [record])
        assert parse_datagram_partial(GOLDEN) == (GOLDEN_FIELDS, [record], len(GOLDEN))
        assert parse_stream_records([GOLDEN, GOLDEN]) == [
            NetFlowV5Record(KEY, 2 * PACKETS, 2 * OCTETS, FIRST, LAST)
        ]

    def test_parsers_ignore_fields_the_library_leaves_zero(self):
        # Next hop, interfaces, flags, ToS, AS numbers and masks all
        # set: the decoded record must still come from the right bytes.
        busy = GOLDEN_HEADER + V5_RECORD.pack(
            SRC, DST, 0x01020304, 5, 6, PACKETS, OCTETS, FIRST, LAST, SPORT,
            DPORT, 0, 0x12, PROTO, 0x20, 65000, 65001, 24, 16, 0,
        )
        assert parse_datagram(busy)[1] == [
            NetFlowV5Record(KEY, PACKETS, OCTETS, FIRST, LAST)
        ]

    def test_live_decode_reads_golden_datagram(self):
        lo, hi, sizes, timestamps = decode_datagram(GOLDEN)
        assert keys_from_halves(lo, hi) == [KEY] * PACKETS
        # 9001 = 6 x 1286 + 1285: the leftover bytes go to the first packets.
        assert sizes.tolist() == [1286] * 6 + [1285]
        assert timestamps.tolist() == [FIRST / 1000.0] * PACKETS


#: Every encode path, fed one flow key.
ENCODERS = {
    "exporter": lambda key: NetFlowV5Exporter().export(batch({key: 1})),
    "encode_records": lambda key: [encode_header(1) + record_bytes(key, 1, 40)],
    "replay": lambda key: encode_datagrams(
        np.array([key & ((1 << 64) - 1)], dtype=np.uint64),
        np.array([key >> 64]),
        np.array([40]),
        np.array([0]),
    ),
}


class TestKeyRange:
    """A v5 record holds exactly a 104-bit 5-tuple key."""

    @pytest.mark.parametrize("path", sorted(ENCODERS))
    @pytest.mark.parametrize(
        "key",
        [-1, -(1 << 100), 1 << 104, 1 << 120],
        ids=["-1", "-2**100", "2**104", "2**120"],
    )
    def test_every_encoder_rejects_out_of_range_key(self, path, key):
        with pytest.raises(ValueError, match="out of range"):
            ENCODERS[path](key)

    @pytest.mark.parametrize("path", sorted(ENCODERS))
    def test_widest_key_encodes(self, path):
        key = (1 << 104) - 1
        encoded = ENCODERS[path](key)
        assert parse_datagram(encoded[0])[1][0].key == key

"""The record currency: RecordBatch against the record-at-a-time rules.

Every consumer of exported records reads one columnar batch and folds
duplicate keys with one column merge.  These properties pin that
against scalar oracles written here over the same records as
``FlowRecord`` lists: the batch's scalar view round-trips exactly, the
merge sums like ``netwide.merge_sum``, a flow summary poisons octets
like a per-record fold, and the v5 exporter writes the bytes the
per-record encoding rules give (plus a pinned golden draw).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.export.netflow_v5 import (
    MAX_RECORDS_PER_DATAGRAM,
    NetFlowV5Exporter,
    encode_header,
    encode_records,
)
from repro.flow.key import FLOW_KEY_MASK, pack_key
from repro.flow.packet import DEFAULT_PACKET_BYTES
from repro.flowdb.summary import UNMEASURED, FlowSummary
from repro.hashing.mixers import MASK64
from repro.netwide.merge import merge_sum
from repro.stream.records import REASONS, FlowRecord, RecordBatch, merge_flow_records

TIMING = st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1e5, allow_nan=False))


@st.composite
def record_lists(draw) -> list[FlowRecord]:
    """Records over a few keys (so keys repeat): ``hi == 0`` keys and
    full 104-bit keys, measured and unmeasured octets, untracked and
    measured-0.0 timing, every reason."""
    keys = draw(
        st.lists(
            st.one_of(
                st.integers(0, MASK64),
                st.integers(1 << 64, FLOW_KEY_MASK),
                st.sampled_from([0, FLOW_KEY_MASK]),
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    row = st.builds(
        FlowRecord,
        key=st.sampled_from(keys),
        packets=st.integers(1, 2**31),
        first_seen=TIMING,
        last_seen=TIMING,
        reason=st.sampled_from(REASONS),
        octets=st.one_of(st.none(), st.integers(0, 2**31)),
    )
    return draw(st.lists(row, max_size=40))


def oracle_datagrams(rows, sys_uptime_ms, unix_secs, engine_id=0):
    """The v5 datagrams of ``rows`` by the per-record rules: packets
    and measured octets sum per key, any unmeasured record makes the
    flow use the packets x mean-size estimate, a record's timing is
    ``round(seconds * 1000)`` (one bound standing in for a missing
    other), spans widen to min first / max last, an untimed flow takes
    the header uptime, and keys go out ascending."""
    packets, octets, unmeasured, times = {}, {}, set(), {}
    for r in rows:
        packets[r.key] = packets.get(r.key, 0) + r.packets
        if r.octets is None:
            unmeasured.add(r.key)
        else:
            octets[r.key] = octets.get(r.key, 0) + r.octets
        if r.first_seen is not None or r.last_seen is not None:
            first = r.first_seen if r.first_seen is not None else r.last_seen
            last = r.last_seen if r.last_seen is not None else r.first_seen
            span = (round(first * 1000.0), round(last * 1000.0))
            if r.key in times:
                span = (min(span[0], times[r.key][0]), max(span[1], times[r.key][1]))
            times[r.key] = span
    keys = sorted(packets)
    body = b"".join(
        encode_records(
            [key & MASK64],
            [key >> 64],
            packets[key],
            packets[key] * DEFAULT_PACKET_BYTES
            if key in unmeasured
            else octets[key],
            *times.get(key, (sys_uptime_ms, sys_uptime_ms)),
        ).tobytes()
        for key in keys
    )
    datagrams = []
    for start in range(0, len(keys), MAX_RECORDS_PER_DATAGRAM):
        count = min(MAX_RECORDS_PER_DATAGRAM, len(keys) - start)
        header = encode_header(count, sys_uptime_ms, unix_secs, start, engine_id)
        datagrams.append(header + body[start * 48 : (start + count) * 48])
    return datagrams


def oracle_summary(rows) -> FlowSummary:
    """Per-record fold: packets sum, an unmeasured record poisons the
    flow's octets for good."""
    counts, octets = {}, {}
    for r in rows:
        counts[r.key] = counts.get(r.key, 0) + r.packets
        if r.octets is None or octets.get(r.key, 0) == UNMEASURED:
            octets[r.key] = UNMEASURED
        else:
            octets[r.key] = octets.get(r.key, 0) + r.octets
    return FlowSummary.from_counts(counts, octets)


def same_summary(a: FlowSummary, b: FlowSummary) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("lo", "hi", "packets", "octets")
    )


class TestRecordCurrency:
    @settings(max_examples=150, deadline=None)
    @given(record_lists())
    def test_scalar_view_round_trips(self, rows):
        assert RecordBatch.from_records(rows).flows() == rows

    @settings(max_examples=150, deadline=None)
    @given(record_lists())
    def test_column_merge_sums_packets(self, rows):
        batch = RecordBatch.from_records(rows)
        assert merge_flow_records(batch) == merge_sum(
            {r.key: r.packets} for r in rows
        )

    @settings(max_examples=150, deadline=None)
    @given(record_lists())
    def test_summary_poisons_like_per_record_fold(self, rows):
        summary = FlowSummary.from_records(RecordBatch.from_records(rows))
        assert same_summary(summary, oracle_summary(rows))

    @settings(max_examples=150, deadline=None)
    @given(record_lists(), st.integers(0, 2**31), st.integers(0, 2**31))
    def test_v5_export_matches_per_record_encoding(self, rows, uptime, unix_secs):
        exporter = NetFlowV5Exporter(engine_id=3)
        got = exporter.export(
            RecordBatch.from_records(rows), sys_uptime_ms=uptime, unix_secs=unix_secs
        )
        assert got == oracle_datagrams(rows, uptime, unix_secs, engine_id=3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(record_lists(), max_size=4))
    def test_concat_keeps_rows_and_pads_timing(self, parts):
        batches = [RecordBatch.from_records(rows) for rows in parts]
        joined = RecordBatch.concat(batches)
        assert joined.flows() == [flow for rows in parts for flow in rows]


#: A fixed draw: repeated keys (one all measured, one mixing measured
#: and unmeasured octets), a ``hi == 0`` key and the widest key, timing
#: untracked, measured at 0.0, and with one bound missing, every reason.
GOLDEN_ROWS = [
    FlowRecord(pack_key(0x0A000001, 0x0B000001, 1234, 80, 6), 3, 0.0, 0.25,
               "inactive", 180),
    FlowRecord(5, 2, None, None, "epoch"),
    FlowRecord(FLOW_KEY_MASK, 7, 1.5, None, "active", 700),
    FlowRecord(5, 4, 2.0, 3.0, "interval", 64),
    FlowRecord(pack_key(0xC0A80001, 0x08080808, 53, 53, 17), 1, None, 9.999,
               "final"),
    FlowRecord(pack_key(0x0A000001, 0x0B000001, 1234, 80, 6), 1, 0.5, 4.0005,
               "", 60),
] + [
    FlowRecord(pack_key(0x0A000100 + i, 0x0B000100, 4000 + i, 443, 6), i + 1,
               None if i % 3 else 0.001 * i, None if i % 3 else 0.002 * i,
               REASONS[i % len(REASONS)], None if i % 2 else 100 * i)
    for i in range(40)
]

#: SHA-256 of the datagrams the record-at-a-time exporter wrote for
#: GOLDEN_ROWS (sys_uptime_ms=12_345, unix_secs=1_700_000_000,
#: engine_id=3), concatenated.
GOLDEN_SHA256 = "6dd380026bf8d965a259fee519eac49a5ed060df940c19173d935b809fba62f8"
GOLDEN_BYTES = 2 * 24 + 44 * 48


class TestGoldenExport:
    def test_batch_export_writes_golden_bytes(self):
        exporter = NetFlowV5Exporter(engine_id=3)
        datagrams = exporter.export(
            RecordBatch.from_records(GOLDEN_ROWS),
            sys_uptime_ms=12_345,
            unix_secs=1_700_000_000,
        )
        data = b"".join(datagrams)
        assert len(data) == GOLDEN_BYTES
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
        assert exporter.flow_sequence == 44

    def test_oracle_writes_golden_bytes(self):
        data = b"".join(
            oracle_datagrams(GOLDEN_ROWS, 12_345, 1_700_000_000, engine_id=3)
        )
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256


class TestBatchShape:
    def test_untimed_batch_has_no_timing_columns(self):
        batch = RecordBatch.from_records([FlowRecord(1, 2, reason="epoch")])
        assert not batch.timed
        assert batch.octets.tolist() == [UNMEASURED]

    def test_concat_of_untimed_and_timed_marks_untracked_nan(self):
        untimed = RecordBatch.from_records([FlowRecord(1, 2)])
        timed = RecordBatch.from_records([FlowRecord(3, 4, 0.0, 1.0)])
        joined = RecordBatch.concat([untimed, timed])
        assert math.isnan(joined.first_seen[0]) and joined.first_seen[1] == 0.0
        assert [f.first_seen for f in joined.flows()] == [None, 0.0]

    @pytest.mark.parametrize("key", [-1, FLOW_KEY_MASK + 1])
    def test_out_of_range_key_rejected(self, key):
        with pytest.raises(ValueError, match="out of range"):
            RecordBatch.from_records([FlowRecord(key, 1)])

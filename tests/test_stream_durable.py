"""Durable sink writes: atomicity, retry, archives, idempotent close."""

from __future__ import annotations

import errno
import json
import os

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.stream.durable import (
    RotationArchive,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.stream.records import FlowRecord, RecordBatch
from repro.stream.sinks import NetFlowV5Sink, TextSink


@pytest.fixture(autouse=True)
def clean_fault_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def records(rotation: int, n: int = 3) -> RecordBatch:
    return RecordBatch.from_records(
        FlowRecord(
            key=rotation * 100 + i + 1,
            packets=i + 1,
            octets=64 * (i + 1),
            first_seen=float(rotation),
            last_seen=float(rotation) + 0.5,
            reason="interval",
        )
        for i in range(n)
    )


class TestAtomicWrite:
    def test_writes_content_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"hello")
        assert path.read_bytes() == b"hello"
        assert list(tmp_path.glob(".*.tmp.*")) == []

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_transient_fault_is_retried(self, tmp_path):
        # The first physical attempt fails ENOSPC (injected); the retry
        # succeeds and the content lands whole.
        faults.activate(FaultPlan([{"kind": "sink_write", "nth": 1}]))
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload", backoff_s=0.001)
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.glob(".*.tmp.*")) == []

    def test_persistent_transient_fault_exhausts_budget(self, tmp_path):
        faults.activate(FaultPlan([{"kind": "sink_write", "nth": 1, "times": 10}]))
        path = tmp_path / "out.bin"
        with pytest.raises(OSError) as exc_info:
            atomic_write_bytes(path, b"payload", retries=2, backoff_s=0.001)
        assert exc_info.value.errno == errno.ENOSPC
        assert not path.exists()
        assert list(tmp_path.glob(".*.tmp.*")) == []

    def test_non_transient_fault_not_retried(self, tmp_path):
        faults.activate(
            FaultPlan([{"kind": "sink_write", "nth": 1, "errno": errno.EACCES}])
        )
        plan = faults.active()
        with pytest.raises(OSError):
            atomic_write_bytes(tmp_path / "out.bin", b"x", backoff_s=0.001)
        assert plan.sink_writes == 1  # one attempt, no retry


class TestRotationArchive:
    def test_writes_parts_and_manifest(self, tmp_path):
        archive = RotationArchive(tmp_path / "arch", ".bin")
        archive.write(0, b"aaa", records=1)
        archive.write(0, b"bbb", records=2)
        archive.write(3, b"ccc", records=3)
        archive.finalize({3})
        root = tmp_path / "arch"
        assert (root / "rotation-000000-00.bin").read_bytes() == b"aaa"
        assert (root / "rotation-000000-01.bin").read_bytes() == b"bbb"
        assert (root / "rotation-000003-00.bin").read_bytes() == b"ccc"
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert manifest["complete"] is True
        assert manifest["degraded"] == [3]
        flags = {f["file"]: f["degraded"] for f in manifest["files"]}
        assert flags == {
            "rotation-000000-00.bin": False,
            "rotation-000000-01.bin": False,
            "rotation-000003-00.bin": True,
        }

    def test_abort_removes_only_temp_strays(self, tmp_path):
        archive = RotationArchive(tmp_path / "arch", ".bin")
        archive.write(0, b"whole")
        stray = tmp_path / "arch" / f".rotation-000001-00.bin.tmp.{os.getpid()}"
        stray.write_bytes(b"partial")
        archive.abort()
        assert not stray.exists()
        assert (tmp_path / "arch" / "rotation-000000-00.bin").exists()
        assert not (tmp_path / "arch" / "MANIFEST.json").exists()


class TestTextSinkDurability:
    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = TextSink("jsonl", path=str(path))
        sink.emit(records(0), 0, 0.0)
        sink.close()
        first = path.read_text()
        sink.close()  # the daemon's finally path may close again
        assert path.read_text() == first

    def test_abort_after_failed_emit_writes_nothing(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = TextSink("jsonl", path=str(path))
        sink.emit(records(0), 0, 0.0)
        sink.abort()
        assert not path.exists()
        sink.close()  # abort settled the sink: close is now a no-op
        assert not path.exists()

    def test_archive_mode_writes_rotation_files(self, tmp_path):
        directory = tmp_path / "arch"
        sink = TextSink("csv", directory=str(directory))
        sink.emit(records(0), 0, 0.0)
        sink.emit(records(1), 1, 1.0)
        sink.flag_degraded(1)
        sink.close()
        part = (directory / "rotation-000000-00.csv").read_text()
        assert part.startswith(",".join(TextSink.CSV_COLUMNS))
        manifest = json.loads((directory / "MANIFEST.json").read_text())
        assert manifest["degraded"] == [1]
        assert sink.summary()["files"] == 2
        assert sink.summary()["degraded"] == [1]

    def test_clean_summary_has_no_degraded_key(self):
        sink = TextSink("jsonl")
        sink.emit(records(0), 0, 0.0)
        assert "degraded" not in sink.summary()


class TestNetFlowSinkDurability:
    def test_close_and_abort_idempotent(self, tmp_path):
        sink = NetFlowV5Sink(directory=str(tmp_path / "arch"))
        sink.emit(records(0), 0, 0.0)
        sink.close()
        manifest = tmp_path / "arch" / "MANIFEST.json"
        stamp = manifest.stat().st_mtime_ns
        sink.close()
        sink.abort()  # after close: both are no-ops
        assert manifest.stat().st_mtime_ns == stamp

    def test_archive_round_trips_datagrams(self, tmp_path):
        from repro.export.netflow_v5 import parse_stream, split_stream

        directory = tmp_path / "arch"
        sink = NetFlowV5Sink(directory=str(directory))
        sink.emit(records(0), 0, 0.0)
        sink.emit(records(1), 1, 1.0)
        sink.close()
        names = sorted(
            f["file"]
            for f in json.loads((directory / "MANIFEST.json").read_text())["files"]
        )
        datagrams = []
        for name in names:
            datagrams.extend(split_stream((directory / name).read_bytes()))
        merged = parse_stream(iter(datagrams))
        assert merged == {
            r.key: r.packets for r in records(0).flows() + records(1).flows()
        }

    def test_abort_leaves_whole_files_only(self, tmp_path):
        directory = tmp_path / "arch"
        sink = NetFlowV5Sink(directory=str(directory))
        sink.emit(records(0), 0, 0.0)
        sink.abort()
        listing = sorted(p.name for p in directory.iterdir())
        assert listing == ["rotation-000000-00.nfv5"]  # whole, no manifest

    def test_memory_mode_summary_unchanged(self):
        sink = NetFlowV5Sink()
        sink.emit(records(0), 0, 0.0)
        sink.close()
        assert set(sink.summary()) == {"datagrams", "records", "bytes"}


#: Manifest fields the refusal sweep sets: every top-level field and
#: every field of the first file entry.
MANIFEST_FIELDS = [
    (name,) for name in ("schema", "complete", "suffix", "degraded", "files")
] + [
    ("files", name)
    for name in ("file", "rotation", "bytes", "records", "datagrams", "degraded")
]
#: One value of each JSON kind.
MANIFEST_VALUES = [None, True, -1, 2**64 + 1, 2.5, "", "x", [], [1], {}]


class TestArchiveReader:
    """read_archive: validated, degraded-flag-preserving."""

    def _write(self, directory, degraded=frozenset()):
        sink = NetFlowV5Sink(directory=str(directory))
        sink.emit(records(0), 0, 0.0)
        sink.emit(records(1), 1, 1.0)
        sink.emit(records(1, n=2), 1, 1.1)  # second part, same rotation
        for rotation in degraded:
            sink.flag_degraded(rotation)
        sink.close()
        return sink

    def test_read_archive_round_trips_rotations(self, tmp_path):
        from repro.export.netflow_v5 import parse_stream, split_stream
        from repro.stream.durable import read_archive

        directory = tmp_path / "arch"
        self._write(directory)
        view = read_archive(directory)
        assert view.suffix == ".nfv5"
        assert view.degraded == frozenset()
        seen = {}
        for rotation, payloads, tainted in view.rotations():
            assert not tainted
            datagrams = []
            for payload in payloads:
                datagrams.extend(split_stream(payload))
            seen[rotation] = parse_stream(iter(datagrams))
        assert seen[0] == {r.key: r.packets for r in records(0).flows()}
        expected: dict[int, int] = {}
        # The two parts share keys, which sum.
        for r in records(1).flows() + records(1, n=2).flows():
            expected[r.key] = expected.get(r.key, 0) + r.packets
        assert seen[1] == expected

    def test_degraded_flags_surface_to_callers(self, tmp_path):
        from repro.stream.durable import read_archive

        directory = tmp_path / "arch"
        self._write(directory, degraded={1})
        view = read_archive(directory)
        assert view.degraded == frozenset({1})
        flags = {rot: tainted for rot, _, tainted in view.rotations()}
        assert flags == {0: False, 1: True}
        by_file = {e["file"]: e["degraded"] for e in view.files}
        assert by_file["rotation-000000-00.nfv5"] is False
        assert by_file["rotation-000001-00.nfv5"] is True
        assert by_file["rotation-000001-01.nfv5"] is True

    def test_missing_manifest_rejected(self, tmp_path):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        sink = self._write(directory)
        (directory / RotationArchive.MANIFEST_NAME).unlink()
        with pytest.raises(ArchiveError, match="not a finalized"):
            read_archive(directory)

    def test_unknown_schema_rejected(self, tmp_path):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        self._write(directory)
        path = directory / RotationArchive.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["schema"] = 999
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="schema 999"):
            read_archive(directory)

    def test_legacy_manifest_without_schema_is_version_1(self, tmp_path):
        from repro.stream.durable import read_archive

        directory = tmp_path / "arch"
        self._write(directory)
        path = directory / RotationArchive.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        del manifest["schema"]  # pre-versioning writer
        path.write_text(json.dumps(manifest))
        assert read_archive(directory).suffix == ".nfv5"

    def test_partial_file_rejected_by_size(self, tmp_path):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        self._write(directory)
        victim = directory / "rotation-000000-00.nfv5"
        victim.write_bytes(victim.read_bytes()[:-7])  # truncate
        with pytest.raises(ArchiveError, match="partial or tampered"):
            read_archive(directory)

    def test_missing_file_rejected(self, tmp_path):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        self._write(directory)
        (directory / "rotation-000001-00.nfv5").unlink()
        with pytest.raises(ArchiveError, match="missing"):
            read_archive(directory)

    def test_temp_stray_entry_rejected(self, tmp_path):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        self._write(directory)
        path = directory / RotationArchive.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["files"].append(
            {"file": ".rotation-000009-00.nfv5.tmp.123", "rotation": 9, "bytes": 1}
        )
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="temp stray"):
            read_archive(directory)

    def test_foreign_path_entry_rejected(self, tmp_path):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        self._write(directory)
        path = directory / RotationArchive.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["files"].append(
            {"file": "../evil.nfv5", "rotation": 0, "bytes": 1}
        )
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="non-local"):
            read_archive(directory)

    def test_incomplete_manifest_rejected(self, tmp_path):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        self._write(directory)
        path = directory / RotationArchive.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["complete"] = False
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="not marked complete"):
            read_archive(directory)

    def test_rotation_name_mismatch_rejected(self, tmp_path):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        self._write(directory)
        path = directory / RotationArchive.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["files"][0]["rotation"] = 42  # disagrees with the name
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="disagrees"):
            read_archive(directory)

    def test_every_proper_prefix_refused(self, tmp_path):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        self._write(directory, degraded={1})
        path = directory / RotationArchive.MANIFEST_NAME
        text = path.read_text().rstrip()
        for cut in range(len(text)):
            path.write_text(text[:cut])
            with pytest.raises(ArchiveError):
                read_archive(directory)

    @pytest.mark.parametrize("field", MANIFEST_FIELDS, ids="/".join)
    @pytest.mark.parametrize("value", MANIFEST_VALUES, ids=repr)
    def test_field_refused_or_read_exactly(self, tmp_path, field, value):
        from repro.stream.durable import ArchiveError, read_archive

        directory = tmp_path / "arch"
        self._write(directory, degraded={1})
        path = directory / RotationArchive.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        if len(field) == 1:
            manifest[field[0]] = value
        else:
            manifest["files"][0][field[1]] = value
        path.write_text(json.dumps(manifest))
        try:
            view = read_archive(directory)
        except ArchiveError:
            return
        # What the file says: rotation indices and bool flags, exactly.
        listed = manifest.get("degraded", [])
        assert all(type(r) is int and r >= 0 for r in listed)
        flags = [e.get("degraded", False) for e in manifest["files"]]
        assert all(type(flag) is bool for flag in flags)
        rotations = {e["rotation"] for e in manifest["files"]}
        degraded = set(listed) | {
            e["rotation"] for e, flag in zip(manifest["files"], flags) if flag
        }
        assert view.degraded == degraded
        assert [e["degraded"] for e in view.files] == flags
        read = {rotation: tainted for rotation, _, tainted in view.rotations()}
        assert read == {r: r in degraded for r in rotations}

    def test_text_archive_reads_back(self, tmp_path):
        from repro.stream.durable import read_archive

        directory = tmp_path / "arch"
        sink = TextSink(fmt="jsonl", directory=str(directory))
        sink.emit(records(0), 0, 0.0)
        sink.flag_degraded(0)
        sink.close()
        view = read_archive(directory)
        assert view.suffix == ".jsonl"
        ((rotation, payloads, tainted),) = list(view.rotations())
        assert (rotation, tainted) == (0, True)
        rows = [json.loads(line) for line in payloads[0].decode().splitlines()]
        assert [row["packets"] for row in rows] == [1, 2, 3]

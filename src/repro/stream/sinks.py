"""Sinks: where a streaming pipeline's exported records go.

A :class:`Sink` receives every rotation's exported
:class:`~repro.stream.records.RecordBatch`.  Transport sinks encode
them for downstream consumers (NetFlow v5 datagrams, JSON/CSV lines, an
in-memory archive); analysis *taps* run a per-rotation analysis stage
(heavy hitters, cardinality, anomaly detection) over the export stream
instead of forwarding it.  Sinks are spec-described
(``{"kind": ..., "params": ...}``, JSON-native) so a
:class:`~repro.stream.spec.PipelineSpec` can carry any fan-out of them.
"""

from __future__ import annotations

import csv
import io
import json
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Mapping

from repro.flow.packet import DEFAULT_PACKET_BYTES
from repro.hashing.mixers import keys_from_halves
from repro.stream.records import RecordBatch, merge_flow_records


class Sink(ABC):
    """A spec-described consumer of exported flow records."""

    #: Registry kind name.
    kind: str = "sink"

    @abstractmethod
    def spec_params(self) -> dict[str, Any]:
        """JSON-native constructor params reproducing this sink."""

    @property
    def spec(self) -> dict[str, Any]:
        """The ``{"kind": ..., "params": ...}`` description."""
        return {"kind": self.kind, "params": self.spec_params()}

    @abstractmethod
    def emit(self, records: RecordBatch, rotation: int, now: float) -> None:
        """Receive one rotation's exported records.

        Args:
            records: the rotation's exports as one batch (may be
                empty).
            rotation: 0-based rotation index (the end-of-stream drain
                uses the next index after the last rotation).
            now: the pipeline clock at export time (seconds).
        """

    @property
    def degraded(self) -> set[int]:
        """Rotation indices flagged degraded (lazily materialized so
        subclasses need no ``super().__init__`` call)."""
        flagged = getattr(self, "_degraded", None)
        if flagged is None:
            flagged = set()
            self._degraded = flagged
        return flagged

    def flag_degraded(self, rotation: int) -> None:
        """Mark one rotation's content as incomplete (a worker died
        holding part of that window's state) — recorded in metadata
        rather than silently wrong."""
        self.degraded.add(int(rotation))

    def _degraded_fields(self) -> dict[str, Any]:
        """Summary fields for degraded rotations (empty when clean, so
        fault-free summaries are byte-identical to pre-supervision ones)."""
        if not self.degraded:
            return {}
        return {"degraded": sorted(self.degraded)}

    def close(self) -> None:
        """End-of-stream hook (flush files, settle state); idempotent."""

    def abort(self) -> None:
        """Failure-path hook: settle state *without* emitting output.

        Called instead of :meth:`close` when the run died — a crashed
        rotation must never leave a half-written archive.  Default:
        delegate to :meth:`close` (memory sinks have nothing to skip);
        file-writing sinks override to clean up instead of write.
        """
        self.close()

    @abstractmethod
    def summary(self) -> dict[str, Any]:
        """JSON-native totals for reports and parallel result rows."""


class NetFlowV5Sink(Sink):
    """Encode every rotation as standard NetFlow v5 datagrams.

    Measured byte counts and flow timing carried on the records are
    wired into ``dOctets`` / ``first`` / ``last`` (see
    :meth:`repro.export.netflow_v5.NetFlowV5Exporter.export` for the
    fallback precedence); the datagrams accumulate on
    :attr:`datagrams` for transport or parse-back verification.

    With ``directory`` set the sink is *durable*: every export is also
    written as its own rotation archive file
    (``rotation-RRRRRR-PP.nfv5``, the emit's datagrams concatenated)
    through the atomic write-then-rename + fsync + bounded-retry
    discipline of :mod:`repro.stream.durable`, and :meth:`close` seals
    the directory with a ``MANIFEST.json`` naming every file and every
    degraded rotation.  A crashed run (:meth:`abort`) never leaves a
    half-written archive — completed files are whole by construction
    and temp files are removed.

    Args:
        engine_id: exporter identifier carried in every header.
        sampling_interval: header sampling field (0 = unsampled).
        mean_packet_bytes: dOctets fallback estimate for records
            without measured byte counts.
        unix_secs: export wall-clock stamp for the headers (kept a
            constant parameter so pipeline runs are deterministic).
        directory: optional rotation-archive directory (durable mode).
    """

    kind = "netflow_v5"

    def __init__(
        self,
        engine_id: int = 0,
        sampling_interval: int = 0,
        mean_packet_bytes: int = DEFAULT_PACKET_BYTES,
        unix_secs: int = 0,
        directory: str | None = None,
    ):
        from repro.export.netflow_v5 import NetFlowV5Exporter

        self.exporter = NetFlowV5Exporter(
            engine_id=engine_id,
            sampling_interval=sampling_interval,
            mean_packet_bytes=mean_packet_bytes,
        )
        self.unix_secs = int(unix_secs)
        self.directory = None if directory is None else str(directory)
        self.datagrams: list[bytes] = []
        self._records = 0
        self._archive = None
        if self.directory is not None:
            from repro.stream.durable import RotationArchive

            self._archive = RotationArchive(self.directory, ".nfv5")
        self._closed = False

    def spec_params(self) -> dict[str, Any]:
        return {
            "engine_id": self.exporter.engine_id,
            "sampling_interval": self.exporter.sampling_interval,
            "mean_packet_bytes": self.exporter.mean_packet_bytes,
            "unix_secs": self.unix_secs,
            "directory": self.directory,
        }

    def emit(self, records: RecordBatch, rotation: int, now: float) -> None:
        if not len(records):
            return
        datagrams = self.exporter.export(
            records,
            sys_uptime_ms=int(round(now * 1000.0)),
            unix_secs=self.unix_secs,
        )
        if self._archive is not None:
            self._archive.write(
                rotation,
                b"".join(datagrams),
                records=len(records),
                datagrams=len(datagrams),
            )
        self.datagrams.extend(datagrams)
        self._records += len(records)

    def parse_back(self) -> dict[int, int]:
        """Decode the accumulated datagrams back into merged records."""
        from repro.export.netflow_v5 import parse_stream

        return parse_stream(iter(self.datagrams))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._archive is not None:
            self._archive.finalize(self.degraded)

    def abort(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._archive is not None:
            self._archive.abort()

    def summary(self) -> dict[str, Any]:
        fields: dict[str, Any] = {
            "datagrams": len(self.datagrams),
            "records": self._records,
            "bytes": sum(len(d) for d in self.datagrams),
        }
        if self._archive is not None:
            fields["directory"] = self.directory
            fields["files"] = len(self._archive.entries)
        fields.update(self._degraded_fields())
        return fields


class TextSink(Sink):
    """Write exported records as JSON lines or CSV rows.

    One line per exported record with the 5-tuple broken out,
    annotated with the rotation index and export reason.

    With ``path`` the whole run's output is written once at
    :meth:`close`, atomically (write-then-rename + fsync + bounded
    retry, :mod:`repro.stream.durable`); with ``directory`` each
    export additionally lands in its own atomically-written rotation
    file plus a closing ``MANIFEST.json`` — the same durable-archive
    contract as :class:`NetFlowV5Sink`.  ``close``/``abort`` are
    idempotent and safe after a failed emit.

    Args:
        fmt: ``"jsonl"`` or ``"csv"``.
        path: optional output file, written on :meth:`close`; when
            None the text stays in memory (:meth:`text`).
        directory: optional per-rotation archive directory.
    """

    CSV_COLUMNS = (
        "rotation", "src_ip", "dst_ip", "src_port", "dst_port", "proto",
        "packets", "octets", "first_seen", "last_seen", "reason",
    )

    def __init__(
        self,
        fmt: str = "jsonl",
        path: str | None = None,
        directory: str | None = None,
    ):
        if fmt not in ("jsonl", "csv"):
            raise ValueError(f"unknown text sink format {fmt!r}")
        self.fmt = fmt
        self.path = None if path is None else str(path)
        self.directory = None if directory is None else str(directory)
        self._lines: list[str] = []
        self._archive = None
        if self.directory is not None:
            from repro.stream.durable import RotationArchive

            self._archive = RotationArchive(self.directory, f".{fmt}")
        self._closed = False

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.fmt

    def spec_params(self) -> dict[str, Any]:
        return {"path": self.path, "directory": self.directory}

    def _format(self, records: RecordBatch, rotation: int) -> list[str]:
        from repro.flow.key import format_ip, unpack_key

        lines = []
        for record in records.flows():
            src_ip, dst_ip, src_port, dst_port, proto = unpack_key(record.key)
            row = {
                "rotation": rotation,
                "src_ip": format_ip(src_ip),
                "dst_ip": format_ip(dst_ip),
                "src_port": src_port,
                "dst_port": dst_port,
                "proto": proto,
                "packets": record.packets,
                "octets": record.octets,
                "first_seen": record.first_seen,
                "last_seen": record.last_seen,
                "reason": record.reason,
            }
            if self.fmt == "jsonl":
                lines.append(json.dumps(row, separators=(",", ":")))
            else:
                buffer = io.StringIO()
                csv.writer(buffer).writerow(row[c] for c in self.CSV_COLUMNS)
                lines.append(buffer.getvalue().rstrip("\r\n"))
        return lines

    def emit(self, records: RecordBatch, rotation: int, now: float) -> None:
        # Format the whole emit before touching sink state, so a
        # mid-emit failure never leaves half a rotation appended.
        lines = self._format(records, rotation)
        if self._archive is not None and lines:
            header = [",".join(self.CSV_COLUMNS)] if self.fmt == "csv" else []
            self._archive.write(
                rotation,
                ("\n".join(header + lines) + "\n").encode("utf-8"),
                records=len(lines),
            )
        self._lines.extend(lines)

    def text(self) -> str:
        """The accumulated output (CSV includes its header line)."""
        lines = self._lines
        if self.fmt == "csv":
            lines = [",".join(self.CSV_COLUMNS), *lines]
        return "\n".join(lines) + ("\n" if lines else "")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.path is not None:
            from repro.stream.durable import atomic_write_text

            atomic_write_text(self.path, self.text())
        if self._archive is not None:
            self._archive.finalize(self.degraded)

    def abort(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._archive is not None:
            self._archive.abort()

    def summary(self) -> dict[str, Any]:
        fields: dict[str, Any] = {"lines": len(self._lines), "path": self.path}
        if self._archive is not None:
            fields["directory"] = self.directory
            fields["files"] = len(self._archive.entries)
        fields.update(self._degraded_fields())
        return fields


def keep_rotation(by_rotation: dict, records: RecordBatch, rotation: int) -> None:
    """File a non-empty export under its rotation index, one batch per
    rotation (several workers' exports of one window concatenate)."""
    if len(records):
        held = by_rotation.get(int(rotation))
        if held:
            records = RecordBatch.concat([held, records])
        by_rotation[int(rotation)] = records


class ArchiveSink(Sink):
    """Keep every exported record in memory.

    :attr:`by_rotation` holds one batch per rotation index (each
    epoch's records under count or interval rotation; supervision tests
    compare live vs offline runs on the non-degraded rotations),
    :attr:`exported` is every record in rotation order, and
    :meth:`merged` sums per flow.
    """

    kind = "archive"

    def __init__(self):
        self.by_rotation: dict[int, RecordBatch] = {}

    def spec_params(self) -> dict[str, Any]:
        return {}

    def emit(self, records: RecordBatch, rotation: int, now: float) -> None:
        keep_rotation(self.by_rotation, records, rotation)

    @property
    def exported(self) -> RecordBatch:
        """Every exported record, in rotation order."""
        return RecordBatch.concat(
            [self.by_rotation[r] for r in sorted(self.by_rotation)]
        )

    def merged(self) -> dict[int, int]:
        """Merged ``{key: packets}`` across every export."""
        return merge_flow_records(self.exported)

    def summary(self) -> dict[str, Any]:
        return {
            "exports": len(self.exported),
            "flows": len(self.merged()),
            **self._degraded_fields(),
        }


class HeavyHitterTap(Sink):
    """Per-rotation heavy-hitter stage over the export stream.

    A flow is heavy when an export reports more than ``threshold``
    packets (the paper's §IV-A definition, applied per rotation —
    a long flow split across rotations must be heavy within one).

    Args:
        threshold: packet-count threshold ``T``.
    """

    kind = "heavy_hitters"

    def __init__(self, threshold: int):
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.threshold = int(threshold)
        self._top: dict[int, int] = {}

    def spec_params(self) -> dict[str, Any]:
        return {"threshold": self.threshold}

    def emit(self, records: RecordBatch, rotation: int, now: float) -> None:
        top = self._top
        heavy = records.packets > self.threshold
        keys = keys_from_halves(records.lo[heavy], records.hi[heavy])
        for key, packets in zip(keys, records.packets[heavy].tolist()):
            if packets > top.get(key, 0):
                top[key] = packets

    def top(self) -> dict[int, int]:
        """Detected heavy hitters: ``{key: largest exported count}``."""
        return dict(self._top)

    def summary(self) -> dict[str, Any]:
        return {
            "heavy_hitters": len(self._top),
            "threshold": self.threshold,
            **self._degraded_fields(),
        }


class CardinalityTap(Sink):
    """Track distinct flows seen across the export stream.

    Exact over exports (each export carries a full flow ID), with a
    per-emit series for trend analysis — one entry per rotation plus
    one for the end-of-stream drain, so ``len(series)`` counts emits,
    not rotations.
    """

    kind = "cardinality"

    def __init__(self):
        self._seen: set[int] = set()
        self.series: list[int] = []

    def spec_params(self) -> dict[str, Any]:
        return {}

    def emit(self, records: RecordBatch, rotation: int, now: float) -> None:
        self._seen.update(records.keys())
        self.series.append(len(records))

    def flows_seen(self) -> int:
        """Distinct flows exported so far."""
        return len(self._seen)

    def summary(self) -> dict[str, Any]:
        return {
            "flows_seen": len(self._seen),
            "exports": sum(self.series),
            **self._degraded_fields(),
        }


class AnomalyTap(Sink):
    """Per-rotation anomaly stage: volume spikes and scanner fan-out.

    An EWMA detector (:class:`repro.analysis.anomaly.EwmaDetector`)
    watches the per-rotation exported-record volume for spikes (the
    DDoS/flood signature); optionally each rotation is scanned for
    high-fan-out sources (:func:`repro.analysis.anomaly.detect_scanners`).

    Args:
        alpha: EWMA smoothing factor.
        k: alert threshold in EWMA standard deviations.
        warmup: rotations absorbed before alerting starts.
        min_fanout: when set, flag sources touching more than this many
            distinct destinations within one rotation.
    """

    kind = "anomaly"

    def __init__(
        self,
        alpha: float = 0.3,
        k: float = 3.0,
        warmup: int = 5,
        min_fanout: int | None = None,
    ):
        from repro.analysis.anomaly import EwmaDetector

        self.detector = EwmaDetector(alpha=alpha, k=k, warmup=warmup)
        self.min_fanout = min_fanout
        self.alerts: list[int] = []
        self.scanners: dict[int, int] = {}

    def spec_params(self) -> dict[str, Any]:
        return {
            "alpha": self.detector.alpha,
            "k": self.detector.k,
            "warmup": self.detector.warmup,
            "min_fanout": self.min_fanout,
        }

    def emit(self, records: RecordBatch, rotation: int, now: float) -> None:
        if self.detector.observe(float(len(records))):
            self.alerts.append(rotation)
        if self.min_fanout is not None and len(records):
            from repro.analysis.anomaly import detect_scanners

            counts = merge_flow_records(records)
            for src, fanout in detect_scanners(counts, self.min_fanout).items():
                if fanout > self.scanners.get(src, 0):
                    self.scanners[src] = fanout

    def summary(self) -> dict[str, Any]:
        return {
            "alerts": len(self.alerts),
            "scanners": len(self.scanners),
            **self._degraded_fields(),
        }


def _build_store_sink(**params: Any) -> Sink:
    """Lazily construct a flow-store sink (flowdb imports stream, so
    the registry must not import flowdb at module load)."""
    from repro.flowdb.sink import FlowStoreSink

    return FlowStoreSink(**params)


#: Registered sink kinds (text formats register per format name).
SINKS: dict[str, Any] = {
    NetFlowV5Sink.kind: NetFlowV5Sink,
    "jsonl": lambda **params: TextSink(fmt="jsonl", **params),
    "csv": lambda **params: TextSink(fmt="csv", **params),
    "store": _build_store_sink,
    ArchiveSink.kind: ArchiveSink,
    HeavyHitterTap.kind: HeavyHitterTap,
    CardinalityTap.kind: CardinalityTap,
    AnomalyTap.kind: AnomalyTap,
}


def build_sink(spec: Mapping[str, Any] | Sink) -> Sink:
    """Build a sink from its spec dict (passthrough for instances)."""
    if isinstance(spec, Sink):
        return spec
    kind = spec.get("kind") if isinstance(spec, Mapping) else None
    if kind not in SINKS:
        raise ValueError(
            f"unknown sink kind {kind!r}; available: {', '.join(sorted(SINKS))}"
        )
    return SINKS[kind](**dict(spec.get("params", {})))

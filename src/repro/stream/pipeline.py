"""The streaming pipeline: Source → Collector → RotationPolicy → Sinks.

:class:`Pipeline` composes the four stage protocols into the standing
ingest→rotate→export loop operational NetFlow implies (paper §I, RFC
3954): a :class:`~repro.stream.sources.Source` materializes the packet
stream, the collector (any :mod:`repro.specs` registry kind) absorbs it
through the vectorized batch engine in backpressure-free
:data:`~repro.flow.batch.DEFAULT_CHUNK_SIZE` chunks (DESIGN §2/§4), a
:class:`~repro.stream.rotation.RotationPolicy` decides when records are
exported and freed, and every export fans out to the configured
:class:`~repro.stream.sinks.Sink`\\ s.

The whole composition is described by a frozen
:class:`~repro.stream.spec.PipelineSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.flow.batch import KeyBatch
from repro.sketches.base import FlowCollector
from repro.specs import build as build_collector
from repro.stream.records import RecordBatch, merge_flow_records
from repro.stream.rotation import (
    RotationPolicy,
    TimeoutRotation,
    build_rotation,
    positive_count,
    positive_finite,
)
from repro.stream.sinks import Sink, build_sink
from repro.stream.sources import Source, build_source
from repro.stream.spec import DEFAULT_PACKET_RATE, PipelineSpec

from repro.flow.batch import DEFAULT_CHUNK_SIZE
from repro.flow.packet import DEFAULT_PACKET_BYTES


@dataclass
class PipelineResult:
    """What one pipeline run produced.

    Attributes:
        packets: packets fed end to end.
        rotations: rotation sweeps that ran (excluding the final drain).
        exported: total flow records emitted to the sinks.
        records: merged ``{key: packets}`` across every export — the
            pipeline's reported flow records (every resident record is
            drained at end of stream, so nothing is missing from this
            view).
        sinks: summaries per sink, keyed ``kind`` (or ``kind#i`` when a
            kind appears more than once), JSON-native.
    """

    packets: int
    rotations: int
    exported: int
    records: dict[int, int]
    sinks: dict[str, dict]

    def summary(self) -> dict[str, Any]:
        """One flat result row."""
        return {
            "packets": self.packets,
            "rotations": self.rotations,
            "exported": self.exported,
            "flows": len(self.records),
            "records": dict(self.records),
            "sinks": {k: dict(v) for k, v in self.sinks.items()},
        }


def _evicts(collector) -> bool:
    """Whether timeout rotation can evict single flows from
    ``collector``; a sharded collector evicts through its shards."""
    # Imported here: processes that only read stores import this
    # module but never build a collector or the netwide package.
    from repro.netwide.sharding import ShardedCollector

    if isinstance(collector, ShardedCollector):
        return all(_evicts(shard) for shard in collector.shards.values())
    return hasattr(collector, "evict")


def check_rotation(collector, rotation) -> None:
    """Refuse a rotation policy that ``collector`` cannot drive.

    The one construction check of a (collector, rotation) pairing:
    :class:`Pipeline` runs it when built, and
    :class:`~repro.serve.spec.ServeSpec` when loaded, before a daemon
    binds or starts a worker.

    Raises:
        ValueError: for a timeout rotation over a collector without
            per-flow eviction (``evict``).
    """
    if isinstance(rotation, TimeoutRotation) and not _evicts(collector):
        raise ValueError(
            f"timeout rotation needs per-flow eviction, but "
            f"{type(collector).__name__} cannot evict(); use a "
            "count/interval rotation or an evictable collector"
        )


class StreamFeeder:
    """The admit → feed → note → rotate loop over a standing collector.

    The stateful core of :meth:`Pipeline.run`, factored out so a live
    daemon (:mod:`repro.serve`) can drive the *same* loop over an
    unbounded stream: each :meth:`feed` call pushes one array batch
    through the collector under the rotation policy, carrying window
    state, sweep counters, and the clock across calls; :meth:`finish`
    runs the end-of-stream drain.  A finite source fed as one ``feed``
    + ``finish`` reproduces ``Pipeline.run`` exactly — rotation
    boundaries land on the same packet positions regardless of how the
    stream is sliced into ``feed`` calls.

    Args:
        collector: the fed :class:`~repro.sketches.base.FlowCollector`.
        rotation: the rotation policy, or None for one end-of-stream
            export.
        emit: callback ``emit(records, rotation_index, now)`` invoked
            with every export's :class:`~repro.stream.records.RecordBatch`
            (including the final drain).
        chunk_size: packets per batched feed chunk.
    """

    def __init__(self, collector, rotation, emit, chunk_size=DEFAULT_CHUNK_SIZE):
        self.collector = collector
        self.rotation = rotation
        self.emit = emit
        self.chunk_size = int(chunk_size)
        self.rotations = 0
        self.packets = 0
        self.exported = 0
        self.now = 0.0
        self._finished = False

    def feed(self, keys, lo, hi, sizes, timestamps) -> None:
        """Push one batch of packets through collector and rotation.

        Args:
            keys: per-packet Python-int flow keys, or None: sub-batches
                then carry the halves alone and rebuild keys only if a
                consumer reads them.
            lo: per-packet low key halves (``np.uint64``).
            hi: per-packet high key halves (``np.uint64``).
            sizes: optional per-packet byte sizes (``np.int64``).
            timestamps: per-packet arrival times (``np.float64``,
                non-decreasing across calls).
        """
        rotation = self.rotation
        collector = self.collector
        pos = 0
        n = len(lo)
        while pos < n:
            limit = min(self.chunk_size, n - pos)
            if rotation is None:
                take = limit
            else:
                take = rotation.admit(limit, timestamps[pos : pos + limit])
                if take == 0 and not rotation.due():
                    raise RuntimeError(
                        f"{type(rotation).__name__} admitted 0 packets "
                        "without a due rotation"
                    )
            if take:
                sub = KeyBatch(
                    None if keys is None else keys[pos : pos + take],
                    lo[pos : pos + take],
                    hi[pos : pos + take],
                    None if sizes is None else sizes[pos : pos + take],
                )
                collector.process_batch(sub)
                if rotation is not None:
                    rotation.note(sub, timestamps[pos : pos + take])
                pos += take
                self.now = float(timestamps[pos - 1])
            if rotation is not None and rotation.due():
                exported = rotation.collect(collector)
                self.emit(exported, self.rotations, self.now)
                self.exported += len(exported)
                self.rotations += 1
        self.packets += n

    def finish(self) -> None:
        """End-of-stream drain: export everything still resident.

        Emits exactly once (idempotent across calls), so the export
        stream is a complete record set.
        """
        if self._finished:
            return
        self._finished = True
        if self.rotation is None:
            final = RecordBatch(*self.collector.record_columns(), "final")
        else:
            final = self.rotation.drain(self.collector)
        self.emit(final, self.rotations, self.now)
        self.exported += len(final)


class Pipeline:
    """A composable streaming collection pipeline.

    Args:
        source: a :class:`~repro.stream.sources.Source` or its spec
            dict.
        collector: a :class:`~repro.sketches.base.FlowCollector`
            instance, or anything :func:`repro.specs.build` accepts
            (kind name, :class:`~repro.specs.CollectorSpec`, spec
            dict).
        rotation: a :class:`~repro.stream.rotation.RotationPolicy` or
            its spec dict; None runs the whole stream as one epoch
            (records export once, at the end-of-stream drain).
        sinks: sink instances or spec dicts, emitted to in order.
        chunk_size: packets per batched feed chunk.
        packet_rate: synthetic clock rate (packets/second) used when
            the source trace has no timestamps.
        packet_bytes: byte size fed per packet to byte-tracking
            collectors.

    Raises:
        ValueError: for a timeout rotation over a collector without
            per-flow eviction (``evict``), or a ``chunk_size``,
            ``packet_rate`` or ``packet_bytes`` that is not positive
            (counts must be integers, the rate finite).
    """

    def __init__(
        self,
        source: Source | Mapping[str, Any],
        collector,
        rotation: RotationPolicy | Mapping[str, Any] | None = None,
        sinks: Sequence[Sink | Mapping[str, Any]] = (),
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        packet_rate: float = DEFAULT_PACKET_RATE,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
    ):
        self.source = build_source(source)
        if isinstance(collector, FlowCollector):
            self.collector = collector
        else:
            self.collector = build_collector(collector)
        self.rotation = build_rotation(rotation)
        check_rotation(self.collector, self.rotation)
        self.sinks = tuple(build_sink(s) for s in sinks)
        self.chunk_size = positive_count("chunk_size", chunk_size)
        self.packet_rate = positive_finite("packet_rate", packet_rate)
        self.packet_bytes = positive_count("packet_bytes", packet_bytes)
        self._ran = False

    # ------------------------------------------------------------------
    # Spec lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: PipelineSpec | Mapping[str, Any]) -> "Pipeline":
        """Build a pipeline from a :class:`PipelineSpec` (or its dict)."""
        if not isinstance(spec, PipelineSpec):
            spec = PipelineSpec.from_dict(spec)
        return cls(
            source=spec.source,
            collector=spec.collector,
            rotation=spec.rotation,
            sinks=spec.sinks,
            chunk_size=spec.chunk_size,
            packet_rate=spec.packet_rate,
            packet_bytes=spec.packet_bytes,
        )

    @property
    def spec(self) -> PipelineSpec:
        """The :class:`PipelineSpec` reproducing this pipeline —
        ``Pipeline.from_spec(pipeline.spec)`` is a bit-identically
        behaving twin."""
        return PipelineSpec(
            source=self.source.spec,
            collector=self.collector.spec.to_dict(),
            rotation=None if self.rotation is None else self.rotation.spec,
            sinks=tuple(s.spec for s in self.sinks),
            chunk_size=self.chunk_size,
            packet_rate=self.packet_rate,
            packet_bytes=self.packet_bytes,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _emit(self, exported: RecordBatch, rotation: int, now: float) -> None:
        for sink in self.sinks:
            sink.emit(exported, rotation, now)

    def run(self, trace=None) -> PipelineResult:
        """Run the stream end to end.

        Args:
            trace: optional pre-materialized trace to run over instead
                of ``source.trace()``.

        Returns:
            A :class:`PipelineResult`; all resident records are drained
            through the sinks before it is returned.

        Raises:
            RuntimeError: on a second call — the collector and sinks
                still hold the first run's state; rebuild via
                ``Pipeline.from_spec(pipeline.spec)`` to run again.
        """
        if self._ran:
            raise RuntimeError(
                "this pipeline has already run; build a fresh one with "
                "Pipeline.from_spec(pipeline.spec)"
            )
        self._ran = True
        if trace is None:
            trace = self.source.trace()
        sizes = (
            self.packet_bytes
            if getattr(self.collector, "track_bytes", False)
            else None
        )
        batch = trace.key_batch(sizes=sizes)
        timestamps = trace.timestamps
        if timestamps is None:
            # Deterministic synthetic clock so time-based rotation works
            # over untimestamped streams.
            timestamps = np.arange(len(trace), dtype=np.float64) / self.packet_rate
        lo, hi = batch.halves() if len(batch) else (None, None)
        n = len(batch)

        exported_all: list[RecordBatch] = []

        def emit(exported, rotation_index, now):
            self._emit(exported, rotation_index, now)
            exported_all.append(exported)

        feeder = StreamFeeder(
            self.collector, self.rotation, emit, chunk_size=self.chunk_size
        )
        if n:
            feeder.feed(batch.keys, lo, hi, batch.sizes, timestamps)
        # End-of-stream drain: everything still resident goes through
        # the sinks, so the export stream is a complete record set.
        feeder.finish()
        rotations = feeder.rotations
        for sink in self.sinks:
            sink.close()

        names: dict[str, int] = {}
        summaries: dict[str, dict] = {}
        for sink in self.sinks:
            count = names.get(sink.kind, 0)
            names[sink.kind] = count + 1
            label = sink.kind if count == 0 else f"{sink.kind}#{count}"
            summaries[label] = sink.summary()
        return PipelineResult(
            packets=n,
            rotations=rotations,
            exported=feeder.exported,
            records=merge_flow_records(RecordBatch.concat(exported_all)),
            sinks=summaries,
        )


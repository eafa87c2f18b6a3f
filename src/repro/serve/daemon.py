"""The live collection daemon: UDP ingest → rings → workers → sinks.

:class:`ServeDaemon` runs a :class:`~repro.serve.spec.ServeSpec` as a
long-lived multi-process service:

* the **parent** owns the UDP socket and the sinks.  It receives up
  to ``_SOCKET_BURST`` datagrams at a time and treats the burst as
  one unit: one decode of every NetFlow v5 datagram in it into packet
  arrays (:func:`repro.export.netflow_v5.decode_datagrams`, arrival
  order kept), one route of its packets to the workers (for several
  workers: by the sharded collector's own owner hash, so every flow
  key has exactly one home process), and one push into each worker's
  :class:`~repro.serve.ring.PacketRing` under the spec's back-pressure
  policy;
* each **worker** process pops batches from its ring and drives the
  exact offline loop — a :class:`~repro.stream.pipeline.StreamFeeder`
  over the spec's collector and rotation policy — sending every export
  back over a pipe, as one columnar
  :class:`~repro.stream.records.RecordBatch`, for the parent to fan out
  to the sinks.

Determinism contract (tested): a daemon fed a finite trace as v5
datagrams exports *bit-identical* records to the offline
``Pipeline.run`` over the same spec — exactly, in order, for one
worker, whatever the collector and rotation; as the same merged record
set for several workers under interval rotation (whose absolute window
grid is worker-independent).  Several workers under timeout rotation
sweep on different packets than offline (``expiry_interval`` counts
each worker's own packets), so their export streams differ and only
the merged records can match.

Lifecycle: ``run`` returns after ``duration`` seconds, or after
:meth:`ServeDaemon.request_stop` (the CLI wires SIGTERM/SIGINT to it).
Shutdown always drains: the socket stops, every ring gets its stop
flag, workers consume what remains, run their final rotation, and
report; only then are sinks closed and the rings unlinked.  Ring
segments come from :mod:`repro.shm.segments`, so even a ``kill -9``
leaves no ``/dev/shm`` litter behind.
"""

from __future__ import annotations

import errno as _errno
import multiprocessing as mp
import os
import select
import signal
import socket
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro import faults as _faults
from repro.export.netflow_v5 import decode_datagrams
from repro.faults import FaultPlan
from repro.flow.batch import KeyBatch
from repro.netwide.sharding import ShardedCollector, owner_hash
from repro.serve.ring import PacketRing
from repro.serve.spec import ServeSpec
from repro.serve.supervisor import Supervisor
from repro.specs import build as build_collector
from repro.stream.pipeline import StreamFeeder
from repro.stream.records import RecordBatch, merge_flow_records
from repro.stream.rotation import build_rotation
from repro.stream.sinks import build_sink, keep_rotation, sink_summaries
from repro.stream.spec import PipelineSpec

#: Receive-buffer request for the listen socket: the kernel-side slack
#: that absorbs ingest stalls under ``block`` back-pressure.
RECV_BUFFER_BYTES = 1 << 22

#: Datagrams drained from the socket per parent loop iteration before
#: pipe messages and stats get a turn; the listener decodes, routes and
#: pushes each such burst once.
_SOCKET_BURST = 512

#: The kernel's UDP socket table (one row per IPv4 UDP socket).
_PROC_NET_UDP = "/proc/net/udp"

#: Worker idle poll (seconds) while its ring is empty.
_IDLE_POLL_S = 0.0005

#: How long shutdown waits for workers to drain before giving up.
DRAIN_TIMEOUT_S = 60.0


def _mp_context():
    """Fork where available (cheap, inherits numpy); spawn elsewhere."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context("spawn")


class _WorkerShards(ShardedCollector):
    """Worker ``w`` of ``W``'s slice of a sharded collector.

    It builds shard ``s`` iff ``s % W == w``, with the derived seed the
    full collector would use, so the union of every worker's records is
    bit-identical to one process running the full collector, at ``1/W``
    of the table memory per process.  The parent only routes a worker
    packets whose owner shard it holds.
    """

    def __init__(self, params: Mapping[str, Any], worker: int, workers: int):
        self.worker = worker
        self.workers = workers
        super().__init__(**params)

    def owned_shards(self) -> range:
        return range(self.worker, self.n_shards, self.workers)


def _worker_meters(feeder: StreamFeeder, collector) -> dict[str, Any]:
    """One worker's stats snapshot, JSON-native."""
    meters = {
        "packets": feeder.packets,
        "exported": feeder.exported,
        "rotations": feeder.rotations,
        "hashes": collector.meter.hashes,
        "accesses": collector.meter.memory_accesses,
    }
    if isinstance(collector, ShardedCollector):
        meters["shards"] = {str(s): n for s, n in collector.shard_loads().items()}
    return meters


def _worker_main(
    worker_index: int,
    workers: int,
    ring_name: str,
    pipeline: dict,
    stats_interval: float,
    conn,
    incarnation: int = 0,
    fault_entries: tuple = (),
) -> None:
    """Worker process: pop the ring, drive the offline feed loop.

    Messages to the parent: ``("export", worker, rotation_index, now,
    records)`` for every rotation, ``records`` one
    :class:`~repro.stream.records.RecordBatch` (a few flat arrays to
    pickle; the parent emits it to the sinks),
    ``("stats", worker, meters)`` every ``stats_interval`` seconds, and
    a final ``("done", worker, meters)`` after the end-of-stream drain.

    ``incarnation`` counts respawns of this worker slot (the
    supervisor's currency for rotation-index mapping and for scoping
    ``fault_entries`` — a ``kill_worker`` fault aimed at incarnation 0
    must not re-trip the moment the respawn's packet counter passes
    the same threshold).
    """
    ring = PacketRing.attach(ring_name)
    spec = PipelineSpec.from_dict(pipeline)
    if workers > 1:
        collector = _WorkerShards(spec.collector["params"], worker_index, workers)
    else:
        collector = build_collector(spec.collector)
    rotation = build_rotation(spec.rotation)
    track_bytes = getattr(collector, "track_bytes", False)
    plan = FaultPlan(fault_entries) if fault_entries else None

    def emit(records, rotation_index, now):
        conn.send(("export", worker_index, rotation_index, now, records))

    feeder = StreamFeeder(collector, rotation, emit, chunk_size=spec.chunk_size)

    def maybe_fault() -> None:
        stall = plan.stall_due(worker_index, incarnation, feeder.packets)
        if stall > 0:
            time.sleep(stall)
        if plan.kill_due(worker_index, incarnation, feeder.packets):
            os.kill(os.getpid(), signal.SIGKILL)

    next_stats = time.monotonic() + stats_interval
    try:
        while True:
            item = ring.pop(spec.chunk_size)
            if item is None:
                if ring.stopped():
                    break
                if plan is not None:
                    maybe_fault()
                time.sleep(_IDLE_POLL_S)
            else:
                lo, hi, sizes, timestamps = item
                feeder.feed(
                    None, lo, hi, sizes if track_bytes else None, timestamps
                )
                if plan is not None:
                    maybe_fault()
            if time.monotonic() >= next_stats:
                conn.send(("stats", worker_index, _worker_meters(feeder, collector)))
                next_stats = time.monotonic() + stats_interval
        feeder.finish()
        conn.send(("done", worker_index, _worker_meters(feeder, collector)))
    finally:
        conn.close()


@dataclass
class ServeResult:
    """What one daemon run collected.

    Attributes:
        packets: packets decoded from the wire (before any ring drop).
        datagrams: datagrams received (v5 or not).
        drops: packets shed at full rings (``drop`` back-pressure).
        kernel_drops: datagrams the kernel dropped at the listen socket
            before the listener could receive them (receive buffer
            full), from bind to the end of the drain; None where the
            count cannot be read (see :meth:`ServeDaemon.kernel_drops`).
        rotations: rotation sweeps across workers (final drain excluded).
        exported: flow records emitted to the sinks.
        batches: every export, one batch per global rotation index.
        sinks: summaries per sink, keyed like
            :class:`~repro.stream.pipeline.PipelineResult`.
        meters: final per-worker meters (as the workers reported them;
            after a restart, the live incarnation's view).
        elapsed: wall-clock seconds from bind to drain.
        fed: packets consumed by worker feeders across every
            incarnation (exact, from ring tail deltas).
        lost: packets discarded from dead workers' rings
            (``on_worker_loss="drop"``) — zero in replay mode.
        restarts: one record per worker respawn (worker, incarnation,
            exitcode, resident, disposition, backoff_s, recovery_ms).
        recv_errors: UDP receive errors by errno name.
        degraded: global rotation indices whose content a worker loss
            made incomplete (also flagged in sink metadata).
    """

    packets: int
    datagrams: int
    drops: int
    rotations: int
    exported: int
    batches: dict[int, RecordBatch]
    sinks: dict[str, dict]
    meters: dict[int, dict]
    elapsed: float
    fed: int = 0
    lost: int = 0
    restarts: list = field(default_factory=list)
    recv_errors: dict = field(default_factory=dict)
    degraded: list = field(default_factory=list)
    kernel_drops: int | None = None

    @cached_property
    def records(self) -> dict[int, int]:
        """Merged ``{key: packets}`` across every export."""
        return merge_flow_records(RecordBatch.concat(self.batches.values()))

    @cached_property
    def rotation_records(self) -> dict[int, dict[int, int]]:
        """Merged ``{key: packets}`` per global rotation index
        (supervision tests compare the non-degraded ones against an
        offline run)."""
        return {
            rotation: merge_flow_records(batch)
            for rotation, batch in sorted(self.batches.items())
        }

    @property
    def accounting_exact(self) -> bool:
        """The supervision identity: ``fed + drops + lost == packets``.

        Holds exactly through any number of worker restarts — a
        violation means packets were silently created or destroyed.
        ``kernel_drops`` stays outside it: those are datagrams the
        daemon never received, so no packet of theirs was counted in
        ``packets``.
        """
        return self.fed + self.drops + self.lost == self.packets

    def summary(self) -> dict[str, Any]:
        """One flat JSON-native result row."""
        return {
            "packets": self.packets,
            "datagrams": self.datagrams,
            "drops": self.drops,
            "kernel_drops": self.kernel_drops,
            "rotations": self.rotations,
            "exported": self.exported,
            "flows": len(self.records),
            "records": dict(self.records),
            "sinks": {k: dict(v) for k, v in self.sinks.items()},
            "meters": {str(w): dict(m) for w, m in self.meters.items()},
            "elapsed": self.elapsed,
            "fed": self.fed,
            "lost": self.lost,
            "restarts": [dict(r) for r in self.restarts],
            "recv_errors": dict(self.recv_errors),
            "degraded": list(self.degraded),
            "accounting_exact": self.accounting_exact,
        }


class ServeDaemon:
    """A runnable live-collection daemon (see the module docstring).

    Args:
        spec: the :class:`~repro.serve.spec.ServeSpec` (or its dict).
        listen: optional ``(host, port)`` override of the spec's
            udp-source address (port 0 binds an ephemeral port;
            :attr:`address` reports the real one after :meth:`bind`).
        quiet: suppress the listening banner and periodic stats lines.
    """

    def __init__(
        self,
        spec: ServeSpec | Mapping[str, Any],
        listen: tuple[str, int] | None = None,
        quiet: bool = False,
    ):
        if not isinstance(spec, ServeSpec):
            spec = ServeSpec.from_dict(spec)
        if listen is not None:
            spec = spec.with_listen(listen[0], listen[1])
        self.spec = spec
        self.quiet = bool(quiet)
        self.address: tuple[str, int] | None = None
        #: Live monitoring counters, updated by the run loop (read-only
        #: for other threads — e.g. a replayer waiting for its packets
        #: to be ingested before requesting a drain).
        self.packets_received = 0
        self.datagrams_received = 0
        #: The merged fault-injection plan: the spec's baked-in faults
        #: plus anything ``REPRO_FAULTS`` names (None when both empty).
        self.fault_plan = FaultPlan.merged(spec.faults, FaultPlan.from_env())
        self._sock: socket.socket | None = None
        self._stop = False

    # ------------------------------------------------------------------
    # Control surface
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask a running :meth:`run` to drain and return (signal-safe)."""
        self._stop = True

    def bind(self) -> tuple[str, int]:
        """Bind the listen socket; returns the real bound address.

        Idempotent; callable before :meth:`run` so a test (or a
        supervisor health check) can learn an ephemeral port while the
        daemon starts in another thread.
        """
        if self._sock is None:
            host, port = self.spec.listen
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RECV_BUFFER_BYTES)
            except OSError:  # pragma: no cover - tiny rmem_max
                pass
            sock.bind((host, port))
            sock.setblocking(False)
            self._sock = sock
            self.address = sock.getsockname()[:2]
            self._say(f"serve: listening on {self.address[0]}:{self.address[1]}")
        return self.address

    def kernel_drops(self) -> int | None:
        """Datagrams the kernel dropped at the listen socket.

        The ``drops`` column of the socket's row in ``/proc/net/udp``,
        matched by the socket's inode: datagrams that reached the
        socket but were dropped before the listener could receive
        them, mostly at a full receive buffer (counted from
        :meth:`bind`).  One read scans the kernel's UDP socket table,
        so the daemon reads it per stats line and once at drain, never
        per datagram.

        Returns:
            The count, or None when no socket is bound or the file or
            the socket's row is missing (off Linux, say).
        """
        sock = self._sock
        if sock is None:
            return None
        try:
            inode = str(os.fstat(sock.fileno()).st_ino)
            with open(_PROC_NET_UDP, encoding="ascii") as fh:
                fh.readline()  # the column names
                for line in fh:
                    columns = line.split()
                    if len(columns) > 12 and columns[9] == inode:
                        return int(columns[12])
        except (OSError, ValueError):
            pass
        return None

    def _say(self, line: str) -> None:
        if not self.quiet:
            print(line, file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self, duration: float | None = None) -> ServeResult:
        """Serve until ``duration`` elapses or :meth:`request_stop`.

        Returns:
            A :class:`ServeResult`; every worker has drained, every
            sink is closed, and the ring segments are unlinked.

        Raises:
            RuntimeError: if a worker process dies with no restart
                budget left — ``max_restarts=0``, the default, makes
                any death a hard fault (rings and sinks are still
                cleaned up first; sinks via their abort path).
        """
        spec = self.spec
        self.bind()
        sock = self._sock
        pipeline = spec.pipeline_spec
        ctx = _mp_context()

        workers = spec.workers
        route_hash = None
        n_shards = 0
        if workers > 1:
            params = pipeline.collector["params"]
            n_shards = int(params["n_shards"])
            route_hash = owner_hash(int(params.get("seed", 0)))

        sinks = tuple(build_sink(s) for s in pipeline.sinks)

        # Run-level accounting (parent view).
        packets = 0
        datagrams = 0
        export_events = 0
        exported = 0
        batches: dict[int, RecordBatch] = {}
        recv_errors: dict[str, int] = {}
        sinks_settled = False
        start = time.monotonic()

        def on_export(worker, rotation, now, records) -> None:
            nonlocal export_events, exported
            for sink in sinks:
                sink.emit(records, rotation, now)
            keep_rotation(batches, records, rotation)
            exported += len(records)
            export_events += 1

        def on_degraded(rotation) -> None:
            for sink in sinks:
                sink.flag_degraded(rotation)

        supervisor = Supervisor(
            spec,
            ctx,
            worker_faults=self.fault_plan.entries if self.fault_plan else (),
            on_export=on_export,
            on_degraded=on_degraded,
            say=self._say,
        )

        def push(ring: PacketRing, lo, hi, sizes, timestamps) -> None:
            if spec.backpressure == "drop":
                accepted = ring.try_push(lo, hi, sizes, timestamps)
                if accepted < len(lo):
                    ring.add_drops(len(lo) - accepted)
                return
            # block: wait for ring space, but keep the supervisor
            # turning meanwhile — a worker blocked on a full export
            # pipe while the parent blocks on its full ring would
            # deadlock otherwise, and a pending respawn must still be
            # progressed or a dead worker's full ring never empties.
            def stalled() -> bool:
                supervisor.check()
                return False

            ring.push(lo, hi, sizes, timestamps, should_abort=stalled)

        if self.fault_plan:
            _faults.activate(self.fault_plan)
        try:
            supervisor.start()
            rings = supervisor.rings

            deadline = None if duration is None else start + duration
            next_stats = start + spec.stats_interval
            stats_packets = 0
            stats_at = start

            while not self._stop:
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    break
                burst = []
                while len(burst) < _SOCKET_BURST:
                    try:
                        burst.append(sock.recv(65535))
                    except BlockingIOError:
                        break
                    except OSError as exc:
                        # Count and surface rather than silently
                        # swallow: one log line per error class, a
                        # counter per errno in the daemon stats.
                        name = _errno.errorcode.get(
                            exc.errno, f"errno {exc.errno}"
                        )
                        if name not in recv_errors:
                            self._say(
                                f"serve: recv error {name}: {exc} "
                                "(counting further occurrences silently)"
                            )
                        recv_errors[name] = recv_errors.get(name, 0) + 1
                        break
                received = len(burst)
                datagrams += received
                decoded = decode_datagrams(burst)
                del burst  # release the datagrams before the push
                if decoded is not None and len(decoded[0]):
                    lo, hi, sizes, timestamps = decoded
                    packets += len(lo)
                    if workers == 1:
                        push(rings[0], lo, hi, sizes, timestamps)
                    else:
                        owners = route_hash.buckets_batch(
                            KeyBatch(None, lo, hi), n_shards
                        )
                        homes = owners % np.uint64(workers)
                        for w in range(workers):
                            members = np.nonzero(homes == np.uint64(w))[0]
                            if len(members):
                                push(
                                    rings[w],
                                    lo[members],
                                    hi[members],
                                    sizes[members],
                                    timestamps[members],
                                )
                self.packets_received = packets
                self.datagrams_received = datagrams
                supervisor.check()
                now = time.monotonic()
                if now >= next_stats:
                    elapsed = now - stats_at
                    pps = (packets - stats_packets) / elapsed if elapsed > 0 else 0.0
                    occupancy = "/".join(str(r.occupancy()) for r in rings)
                    drops = sum(r.drops for r in rings)
                    per_worker = " ".join(
                        f"w{w}:{m.get('packets', 0)}p/{m.get('rotations', 0)}r"
                        for w, m in sorted(supervisor.meters.items())
                    )
                    kernel_drops = self.kernel_drops()
                    if kernel_drops is None:
                        kernel_drops = "n/a"
                    self._say(
                        f"serve: t={now - start:7.1f}s pps={pps:9.0f} "
                        f"packets={packets} datagrams={datagrams} "
                        f"occ={occupancy} drops={drops} "
                        f"kernel_drops={kernel_drops} "
                        f"exports={export_events} {per_worker}".rstrip()
                    )
                    stats_packets = packets
                    stats_at = now
                    next_stats = now + spec.stats_interval
                if received == 0:
                    # Idle: sleep until traffic or a worker message.
                    select.select([sock] + supervisor.conns, [], [], 0.01)

            # ----------------------------------------------------------
            # Graceful drain: stop ingest, let workers finish the rings,
            # run their final rotation, and report.  The stop flag
            # lives in the ring segment, so it survives a respawn: a
            # worker that dies mid-drain is respawned, consumes what
            # remains, and finishes the drain itself.
            # ----------------------------------------------------------
            supervisor.request_stop()
            drain_deadline = time.monotonic() + DRAIN_TIMEOUT_S
            while not supervisor.all_done():
                supervisor.check()
                if time.monotonic() >= drain_deadline:
                    busy = sum(1 for s in supervisor.slots if not s.done)
                    raise RuntimeError(
                        f"serve drain timed out after {DRAIN_TIMEOUT_S}s "
                        f"({busy} workers still busy)"
                    )
                conns = supervisor.conns
                if conns:
                    select.select(conns, [], [], 0.05)
                else:  # every live pipe closed (respawn pending)
                    time.sleep(0.01)
            for slot in supervisor.slots:
                slot.proc.join(timeout=10.0)
            supervisor.pump()

            drops = sum(ring.drops for ring in rings)
            kernel_drops = self.kernel_drops()
            for rotation in sorted(supervisor.degraded):
                self._say(f"serve: rotation {rotation} flagged degraded")
            for sink in sinks:
                sink.close()
            sinks_settled = True
            return ServeResult(
                packets=packets,
                datagrams=datagrams,
                drops=drops,
                rotations=supervisor.rotation_total(),
                exported=exported,
                batches=batches,
                sinks=sink_summaries(sinks),
                meters=dict(sorted(supervisor.meters.items())),
                elapsed=time.monotonic() - start,
                fed=supervisor.fed,
                lost=supervisor.lost,
                restarts=list(supervisor.restarts),
                recv_errors=dict(recv_errors),
                degraded=sorted(supervisor.degraded),
                kernel_drops=kernel_drops,
            )
        finally:
            supervisor.shutdown()
            sock.close()
            self._sock = None
            if self.fault_plan:
                _faults.deactivate()
            if not sinks_settled:
                # The run died: settle sinks through their abort path
                # so a crashed rotation never leaves a half-written
                # archive (abort and close are both idempotent, so
                # this is safe whatever state the failure left).
                for sink in sinks:
                    try:
                        sink.abort()
                    except Exception:  # pragma: no cover - best effort
                        pass

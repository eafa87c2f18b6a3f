"""Lifecycle and determinism tests for the live collection daemon.

The backbone contract: a finite trace replayed into the daemon as v5
datagrams exports records bit-identical to the offline ``Pipeline.run``
of the same collector/rotation/sinks — exactly for one worker, as the
merged record set for several workers under interval rotation.

``packet_rate=500`` throughout: a 2 ms period makes the replayer's
millisecond SysUptime stamps reproduce the offline synthetic clock
``np.arange(n) / packet_rate`` bit for bit (see repro.serve.replay).
"""

from __future__ import annotations

import glob
import json
import multiprocessing as mp
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.flow.batch import KeyBatch
from repro.native import native_available
from repro.netwide.sharding import ShardedCollector, owner_hash
from repro.serve import (
    ServeDaemon,
    ServeSpec,
    encode_datagrams,
    replay_datagrams,
    replay_trace,
    trace_datagrams,
)
from repro.serve.daemon import _WorkerShards
from repro.stream.pipeline import Pipeline
from repro.traces.profiles import CAIDA

PACKET_RATE = 500.0
KERNELS = ["numpy"] + (["native"] if native_available() else [])


def shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro-shm-*"))


def serve_spec(workers: int = 1, **overrides) -> ServeSpec:
    collector = {"kind": "hashflow", "params": {"main_cells": 2048, "seed": 3}}
    if workers > 1:
        collector = {
            "kind": "sharded",
            "params": {"collector": collector, "n_shards": 2 * workers, "seed": 3},
        }
    pipeline = {
        "source": {"kind": "udp", "params": {"host": "127.0.0.1", "port": 0}},
        "collector": collector,
        "rotation": {"kind": "interval", "params": {"window": 0.5}},
        "sinks": [{"kind": "netflow_v5"}, {"kind": "archive"}],
        "packet_rate": PACKET_RATE,
    }
    fields = dict(workers=workers, ring_slots=4096, stats_interval=30.0)
    fields.update(overrides)
    return ServeSpec(pipeline=pipeline, **fields)


def run_replayed(spec: ServeSpec, trace, timeout_s: float = 60.0):
    """Serve ``trace`` over loopback, drain once it is fully ingested."""
    daemon = ServeDaemon(spec, quiet=True)
    address = daemon.bind()
    sent = {}

    def feed() -> None:
        sent["packets"] = replay_trace(trace, address, packet_rate=PACKET_RATE)
        deadline = time.monotonic() + timeout_s
        while (
            daemon.packets_received < sent["packets"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        daemon.request_stop()

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    result = daemon.run(duration=timeout_s)
    feeder.join(timeout=10.0)
    return result, sent["packets"]


def drain_when_accounted(
    daemon: ServeDaemon, sent: int, send=None, timeout_s: float = 30.0
) -> threading.Thread:
    """A thread that calls ``send()`` (if given), then requests the
    drain once every one of ``sent`` datagrams was received or dropped
    by the kernel; start it, then run the daemon."""

    def watch() -> None:
        if send is not None:
            send()
        deadline = time.monotonic() + timeout_s
        while (
            daemon.datagrams_received + (daemon.kernel_drops() or 0) < sent
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        daemon.request_stop()

    return threading.Thread(target=watch, daemon=True)


def offline_result(spec: ServeSpec, trace):
    """The offline ground truth: the same pipeline over the same trace."""
    offline = spec.pipeline_spec.with_stages(
        source={"kind": "synthetic", "params": {"profile": "caida", "n_flows": 1}}
    )
    return Pipeline.from_spec(offline).run(trace=trace)


@pytest.fixture(scope="module")
def trace():
    return CAIDA.generate(n_flows=300, seed=7)


class TestDeterminism:
    def test_single_worker_is_bit_identical_to_offline(self, trace):
        before = shm_segments()
        spec = serve_spec(workers=1)
        result, sent = run_replayed(spec, trace)
        offline = offline_result(spec, trace)
        assert sent == len(trace)
        assert result.packets == len(trace)
        assert result.drops == 0
        assert result.records == offline.records
        assert result.exported == offline.exported
        assert result.rotations == offline.rotations
        # The sinks saw the identical export stream.
        assert result.sinks == offline.sinks
        assert shm_segments() == before

    def test_two_workers_export_the_same_merged_records(self, trace):
        before = shm_segments()
        spec = serve_spec(workers=2)
        result, _ = run_replayed(spec, trace)
        offline = offline_result(spec, trace)
        assert result.records == offline.records
        assert result.exported == offline.exported
        # Interval windows are absolute, so each worker rotates on the
        # same grid: rotations count once per worker.
        assert result.rotations == 2 * offline.rotations
        assert result.sinks["archive"]["flows"] == offline.sinks["archive"]["flows"]
        assert shm_segments() == before

    def test_single_worker_sharded_timeout_is_bit_identical_to_offline(
        self, trace
    ):
        # A sharded collector evicts through its owner shard, so timeout
        # rotation runs live exactly as offline.  (Several workers would
        # sweep on their own packet counts, so only one is asserted.)
        shard = {"kind": "hashflow", "params": {"main_cells": 2048, "seed": 3}}
        pipeline = serve_spec(workers=1).pipeline_spec.with_stages(
            collector={
                "kind": "sharded",
                "params": {"collector": shard, "n_shards": 2, "seed": 3},
            },
            rotation={
                "kind": "timeout",
                "params": {
                    "inactive_timeout": 0.05,
                    "active_timeout": 60.0,
                    "expiry_interval": 64,
                },
            },
        )
        spec = ServeSpec(
            pipeline=pipeline.to_dict(), ring_slots=4096, stats_interval=30.0
        )
        result, _ = run_replayed(spec, trace)
        offline = offline_result(spec, trace)
        assert offline.rotations > 1
        assert result.records == offline.records
        assert result.exported == offline.exported
        assert result.rotations == offline.rotations
        assert result.sinks == offline.sinks

    def test_worker_packet_accounting_closes(self, trace):
        spec = serve_spec(workers=2)
        result, sent = run_replayed(spec, trace)
        fed = sum(m["packets"] for m in result.meters.values())
        assert fed + result.drops == result.packets == sent


def sharded_params(kernel: str = "numpy", track_bytes: bool = False) -> dict:
    """Four shards too small for the test trace's 300 flows, so the
    shards saturate and promote."""
    shard = {"main_cells": 64, "seed": 3, "kernel": kernel}
    if track_bytes:
        shard["track_bytes"] = True
    return {
        "collector": {"kind": "hashflow", "params": shard},
        "n_shards": 4,
        "seed": 9,
    }


class TestShardRoute:
    """Worker ``w`` of ``W`` builds shards ``s % W == w`` of the one
    sharded collector, and the listener hands it exactly their flows."""

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_slices_build_every_shard_once_with_its_offline_seed(self, workers):
        params = sharded_params()
        full = ShardedCollector(**params)
        slices = [_WorkerShards(params, w, workers) for w in range(workers)]
        owned = sorted(s for piece in slices for s in piece.shards)
        assert owned == list(range(params["n_shards"]))
        for piece in slices:
            for s, shard in piece.shards.items():
                assert shard.spec == full.shards[s].spec

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_routed_slices_reproduce_the_full_collector(
        self, trace, kernel, workers
    ):
        params = sharded_params(kernel, track_bytes=True)
        sizes = np.random.default_rng(7).integers(40, 1500, size=len(trace))
        batch = trace.key_batch(sizes=sizes.astype(np.int64))
        full = ShardedCollector(**params)
        full.process_batch(batch)
        assert sum(shard.promotions for shard in full.shards.values()) > 0

        # The listener's routing: owner shard first, then its worker.
        lo, hi = batch.halves()
        owners = owner_hash(params["seed"]).buckets_batch(
            KeyBatch(None, lo, hi), params["n_shards"]
        )
        homes = owners % np.uint64(workers)
        slices = []
        for w in range(workers):
            piece = _WorkerShards(params, w, workers)
            members = np.nonzero(homes == np.uint64(w))[0]
            piece.process_batch(
                KeyBatch(None, lo[members], hi[members], batch.sizes[members])
            )
            slices.append(piece)

        records: dict[int, int] = {}
        byte_records: dict[int, int] = {}
        for piece in slices:
            records.update(piece.records())
            byte_records.update(piece.byte_records())
            for s, shard in piece.shards.items():
                twin = full.shards[s]
                assert shard.promotions == twin.promotions
                assert (
                    shard.meter.packets,
                    shard.meter.hashes,
                    shard.meter.reads,
                    shard.meter.writes,
                ) == (
                    twin.meter.packets,
                    twin.meter.hashes,
                    twin.meter.reads,
                    twin.meter.writes,
                )
        assert records == full.records()
        assert byte_records == full.byte_records()
        assert sum(piece.meter.packets for piece in slices) == len(batch)
        probe = list(records)[:200] + [(1 << 100) + i for i in range(20)]
        home = [full.shard_of(key) % workers for key in probe]
        assert [slices[w].query(key) for w, key in zip(home, probe)] == (
            full.query_batch(probe).tolist()
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("track_bytes", [False, True])
    def test_live_workers_match_offline_sharded_collector(
        self, trace, tmp_path, kernel, workers, track_bytes
    ):
        # Three workers over four shards give worker 0 two shards and
        # the others one: an uneven slice.
        before = shm_segments()

        def with_rows(spec: ServeSpec, path) -> ServeSpec:
            pipeline = spec.pipeline_spec.with_stages(
                collector={
                    "kind": "sharded",
                    "params": sharded_params(kernel, track_bytes),
                },
                sinks=[
                    {"kind": "archive"},
                    {"kind": "jsonl", "params": {"path": str(path)}},
                ],
            )
            return ServeSpec(
                pipeline=pipeline.to_dict(),
                workers=workers,
                ring_slots=4096,
                stats_interval=30.0,
            )

        def rows(path) -> list[tuple]:
            lines = path.read_text().splitlines()
            fields = ("src_ip", "dst_ip", "src_port", "dst_port", "proto")
            return sorted(
                (*(row[f] for f in fields), row["packets"], row["octets"])
                for row in map(json.loads, lines)
            )

        live_rows, offline_rows = tmp_path / "live.jsonl", tmp_path / "offline.jsonl"
        result, sent = run_replayed(with_rows(serve_spec(workers), live_rows), trace)
        offline = offline_result(with_rows(serve_spec(workers), offline_rows), trace)
        assert result.packets == sent == len(trace)
        assert result.drops == 0
        assert result.records == offline.records
        assert result.exported == offline.exported
        assert result.sinks["archive"] == offline.sinks["archive"]
        # Measured bytes reach the export exactly when shards count them.
        assert {octets is None for *_, octets in rows(offline_rows)} == {
            not track_bytes
        }
        assert rows(live_rows) == rows(offline_rows)
        assert shm_segments() == before


class TestBackpressure:
    def test_drop_mode_counts_what_it_sheds(self, trace):
        # A 64-slot ring against an unpaced burst: whatever the worker
        # cannot keep up with is counted, and everything the workers
        # did feed still adds up.
        spec = serve_spec(workers=1, ring_slots=64, backpressure="drop")
        result, sent = run_replayed(spec, trace)
        assert result.packets == sent
        fed = sum(m["packets"] for m in result.meters.values())
        assert fed + result.drops == sent
        assert len(result.records) <= 300

    def test_block_mode_is_lossless(self, trace):
        spec = serve_spec(workers=1, ring_slots=64, backpressure="block")
        result, sent = run_replayed(spec, trace)
        assert result.drops == 0
        assert sum(m["packets"] for m in result.meters.values()) == sent


class TestBurstIngest:
    def test_strays_among_v5_datagrams_keep_offline_records(self, trace):
        # The listener decodes each socket burst at once: strays mixed
        # into a burst are skipped one by one, and the v5 datagrams
        # around them still reach the worker whole and in order.
        spec = serve_spec(workers=1)
        v5 = trace_datagrams(trace, packet_rate=PACKET_RATE)
        # Header-short junk, and a v9 header over a body that would
        # decode as 30 records if its version went unchecked.
        strays = [b"not netflow", (9).to_bytes(2, "big") + v5[0][2:]]
        datagrams = []
        for i, datagram in enumerate(v5):
            datagrams.append(datagram)
            datagrams.extend(strays[: i % 3])
        assert len(datagrams) > len(v5)

        daemon = ServeDaemon(spec, quiet=True)
        address = daemon.bind()
        feeder = drain_when_accounted(
            daemon, len(datagrams), send=lambda: replay_datagrams(datagrams, address)
        )
        feeder.start()
        result = daemon.run(duration=60.0)
        feeder.join(timeout=10.0)

        offline = offline_result(spec, trace)
        assert result.kernel_drops in (0, None)
        assert result.datagrams == len(datagrams)
        assert result.packets == len(trace)
        assert result.drops == 0
        assert result.records == offline.records
        assert result.exported == offline.exported
        assert result.rotations == offline.rotations
        assert result.sinks == offline.sinks


class TestKernelDrops:
    def test_socket_overflow_is_counted(self):
        # Datagrams sent before the listener reads overflow the socket
        # buffer; the kernel's per-socket drop count names exactly the
        # ones the daemon never received.
        if not os.access("/proc/net/udp", os.R_OK):
            pytest.skip("/proc/net/udp is unreadable: no kernel drop count here")
        daemon = ServeDaemon(serve_spec(workers=1), quiet=True)
        address = daemon.bind()
        assert daemon.kernel_drops() == 0
        rcvbuf = daemon._sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        lo = np.arange(1, 31, dtype=np.uint64)
        datagram = encode_datagrams(
            lo, np.zeros(30, dtype=np.uint64), np.full(30, 64), np.zeros(30)
        )[0]
        # Each queued datagram costs at least its own length of buffer.
        sent = 2 * rcvbuf // len(datagram) + 64
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for _ in range(sent):
                sender.sendto(datagram, address)
        finally:
            sender.close()
        watcher = drain_when_accounted(daemon, sent)
        watcher.start()
        result = daemon.run(duration=30.0)
        watcher.join(timeout=10.0)
        assert result.kernel_drops > 0
        assert result.datagrams + result.kernel_drops == sent
        assert result.packets == 30 * result.datagrams
        assert result.accounting_exact
        assert result.summary()["kernel_drops"] == result.kernel_drops


class TestLifecycle:
    def test_sigterm_drains_and_exits_clean(self, trace, tmp_path):
        # A real daemon process: SIGTERM must drain the rings, run the
        # final rotation, and exit 0 with nothing left in /dev/shm.
        before = shm_segments()
        script = tmp_path / "daemon.py"
        script.write_text(
            "import signal, sys, threading\n"
            "from repro.serve import ServeDaemon, ServeSpec, replay_trace\n"
            "from repro.traces.profiles import CAIDA\n"
            f"spec = ServeSpec.from_json({serve_spec(workers=1).to_json()!r})\n"
            "daemon = ServeDaemon(spec, quiet=True)\n"
            "signal.signal(signal.SIGTERM, lambda *a: daemon.request_stop())\n"
            "address = daemon.bind()\n"
            "trace = CAIDA.generate(n_flows=300, seed=7)\n"
            "threading.Thread(\n"
            "    target=replay_trace, args=(trace, address),\n"
            f"    kwargs={{'packet_rate': {PACKET_RATE}}}, daemon=True,\n"
            ").start()\n"
            "result = daemon.run(duration=60.0)\n"
            "print('DRAINED', result.packets, len(result.records), flush=True)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            time.sleep(3.0)  # replay (300 flows, unthrottled) finishes well within
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert stdout.startswith("DRAINED"), (stdout, stderr)
        packets = int(stdout.split()[1])
        assert packets == len(CAIDA.generate(n_flows=300, seed=7))
        assert shm_segments() == before

    def test_killed_worker_is_a_hard_fault_with_cleanup(self, trace):
        before = shm_segments()
        spec = serve_spec(workers=1)
        daemon = ServeDaemon(spec, quiet=True)
        daemon.bind()

        def kill_worker() -> None:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                victims = [
                    p
                    for p in mp.active_children()
                    if p.name.startswith("serve-worker") and p.pid
                ]
                if victims:
                    os.kill(victims[0].pid, signal.SIGKILL)
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_worker, daemon=True)
        killer.start()
        with pytest.raises(RuntimeError, match="died"):
            daemon.run(duration=30.0)
        killer.join(timeout=10.0)
        # The fault path still unlinked every ring segment.
        assert shm_segments() == before

    def test_duration_alone_stops_an_idle_daemon(self):
        spec = serve_spec(workers=1)
        daemon = ServeDaemon(spec, quiet=True)
        result = daemon.run(duration=0.2)
        assert result.packets == 0
        assert result.datagrams == 0
        # No rotation ever fired, but the drain still closed the sinks.
        assert result.sinks["archive"]["exports"] == 0

    def test_stray_non_netflow_datagrams_ignored(self):
        import socket

        spec = serve_spec(workers=1)
        daemon = ServeDaemon(spec, quiet=True)
        address = daemon.bind()

        def send_junk() -> None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for _ in range(5):
                sock.sendto(b"not netflow", address)
            sock.close()
            deadline = time.monotonic() + 10.0
            while daemon.datagrams_received < 5 and time.monotonic() < deadline:
                time.sleep(0.005)
            daemon.request_stop()

        sender = threading.Thread(target=send_junk, daemon=True)
        sender.start()
        result = daemon.run(duration=30.0)
        sender.join(timeout=10.0)
        assert result.datagrams == 5
        assert result.packets == 0


class TestWorkerStartup:
    def test_building_a_collector_leaves_networkx_unloaded(self):
        # Every worker builds its collector through the registry, which
        # imports repro.netwide for the sharded kind; only graph-building
        # code may pay for networkx.
        code = (
            "import sys\n"
            "import repro.serve\n"
            "from repro.specs import build\n"
            "build({'kind': 'hashflow', 'params': {'main_cells': 64}})\n"
            "print('networkx' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

"""Live-daemon ingest throughput for ``repro.serve`` (not a paper
figure).

Replays a NetFlow v5 stream over loopback UDP into a running
:class:`~repro.serve.daemon.ServeDaemon` and measures the sustained
decode-route-ring-feed rate, asserting the delivered record set still
matches the offline ``Pipeline.run`` ground truth (the determinism
contract holds at speed, not just in the unit tests).  The replay is a
closed loop: it keeps at most :data:`IN_FLIGHT_PACKETS` packets sent
but not yet received by the daemon, the window perfbench's generator
keeps, so where the socket receive buffer holds that window the
measured rate is the daemon's capacity, not the kernel's drop rate.
Persists:

* ``benchmarks/results/BENCH_serve_ingest.json`` — the full record
  (wall clock, pps, drop rate, per-worker meters);
* ``BENCH_headline.json`` at the repo root — ``serve_pps`` and
  ``serve_drop_rate`` join the headline perf trajectory.

The daemon's parent (listener) and worker are separate processes, so a
meaningful rate needs at least 2 CPUs: on a single-core container the
listener and worker time-slice, measuring the scheduler rather than
the pipeline.  With fewer than 2 CPUs the timed run is *skipped with
an explicit reason* and the headline records ``serve_pps = null`` plus
that reason (the ``parallel_skip_reason`` convention), instead of a
number a future PR might mistake for a regression.  Stream size
follows ``REPRO_SCALE``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, environment_fields, update_headline
from repro.export.netflow_v5 import HEADER_BYTES, RECORD_BYTES
from repro.native import kernel_info
from repro.serve import ServeDaemon, ServeSpec, replay_datagrams, trace_datagrams
from repro.specs import resolve_scale
from repro.stream.pipeline import Pipeline
from repro.traces.profiles import CAIDA

JSON_PATH = RESULTS_DIR / "BENCH_serve_ingest.json"

#: Synthetic clock rate; a whole-millisecond period (2 ms) keeps the
#: replayed timestamps bit-identical to the offline pipeline clock.
PACKET_RATE = 500.0

#: Packets the ingest replay keeps in flight (sent minus the daemon's
#: ``packets_received``): 546 full datagrams, about 1.2 MiB of kernel
#: buffer.  The daemon's receive buffer holds that only where
#: ``net.core.rmem_max`` allows it; below that the kernel drops
#: datagrams and the replay stops at the first drop.
IN_FLIGHT_PACKETS = 16_384

#: Poll interval while the in-flight window is shut.
POLL_S = 0.001


def _send_closed_loop(
    datagrams, address, daemon, deadline: float
) -> tuple[int, int]:
    """Send every datagram, keeping at most :data:`IN_FLIGHT_PACKETS`
    packets in flight; returns the datagrams and packets sent.

    Sends fewer if ``deadline`` (a ``time.monotonic()`` value) passes
    first, or if the kernel has dropped a datagram at the daemon's
    socket while the window is shut: a dropped datagram never reaches
    ``packets_received``, so the window would never reopen, and the run
    is lost anyway (the caller's assertions name the drops).
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    n_sent = sent = 0
    try:
        for datagram in datagrams:
            packets = (len(datagram) - HEADER_BYTES) // RECORD_BYTES
            while sent + packets - daemon.packets_received > IN_FLIGHT_PACKETS:
                if time.monotonic() > deadline or daemon.kernel_drops():
                    return n_sent, sent
                time.sleep(POLL_S)
            sock.sendto(datagram, address)
            n_sent += 1
            sent += packets
    finally:
        sock.close()
    return n_sent, sent


def _serve_spec(scale: float) -> ServeSpec:
    cells = max(4096, int(round(262_144 * scale)))
    return ServeSpec(
        pipeline={
            "source": {"kind": "udp", "params": {"host": "127.0.0.1", "port": 0}},
            "collector": {"kind": "hashflow", "params": {"main_cells": cells, "seed": 5}},
            "rotation": {"kind": "interval", "params": {"window": 10.0}},
            "sinks": [{"kind": "archive"}],
            "packet_rate": PACKET_RATE,
        },
        workers=1,
        backpressure="block",
        stats_interval=60.0,
    )


def test_serve_ingest_recorded():
    """Record the daemon's sustained loopback ingest rate."""
    cpus = os.cpu_count() or 1
    if cpus < 2:
        reason = (
            f"serve ingest rate not measurable on {cpus} CPU: the "
            "listener and worker processes time-slice one core"
        )
        update_headline(
            serve_pps=None,
            serve_drop_rate=None,
            serve_skip_reason=reason,
            **environment_fields(),
        )
        pytest.skip(reason)

    scale = resolve_scale(None)
    n_flows = max(20_000, int(round(1_000_000 * scale)))
    trace = CAIDA.generate(n_flows=n_flows, seed=23)
    # Encode outside the timed region: the bench measures the daemon,
    # not the replayer's encoder.
    datagrams = trace_datagrams(trace, packet_rate=PACKET_RATE)

    spec = _serve_spec(scale)
    daemon = ServeDaemon(spec, quiet=True)
    address = daemon.bind()
    sent = {}
    timing = {}

    def feed() -> None:
        start = time.perf_counter()
        deadline = time.monotonic() + 300.0
        n_sent, sent["packets"] = _send_closed_loop(
            datagrams, address, daemon, deadline
        )
        # Every datagram sent is either received or dropped by the
        # kernel at the full socket: once they add up, nothing more
        # will arrive, lossy run or not.
        while (
            daemon.datagrams_received + (daemon.kernel_drops() or 0) < n_sent
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        # Ingest complete: everything is off the socket and in (or
        # through) the ring.  The drain that follows is shutdown cost,
        # not steady-state throughput, so the clock stops here.
        timing["ingest_s"] = time.perf_counter() - start
        daemon.request_stop()

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    result = daemon.run(duration=300.0)
    feeder.join(timeout=30.0)

    offline = Pipeline.from_spec(
        spec.pipeline_spec.with_stages(
            source={"kind": "synthetic", "params": {"profile": "caida", "n_flows": 1}}
        )
    ).run(trace=trace)
    print(
        f"\nserve ingest: {result.datagrams} of {len(datagrams)} datagrams "
        f"received, {result.kernel_drops} dropped by the kernel at the "
        f"socket, {result.drops} packets dropped at the rings"
    )
    assert result.packets == sent["packets"] == len(trace)
    assert result.drops == 0, "block back-pressure must be lossless"
    assert result.records == offline.records, "live records diverged from offline"

    ingest_s = timing["ingest_s"]
    pps = result.packets / ingest_s
    drop_rate = result.drops / result.packets
    record = {
        "experiment": "serve_ingest",
        "n_flows": n_flows,
        "n_packets": result.packets,
        "datagrams": result.datagrams,
        "cpus": cpus,
        "scale": scale,
        "kernel": kernel_info()["requested"],
        "workers": spec.workers,
        "backpressure": spec.backpressure,
        "ingest_s": round(ingest_s, 3),
        "serve_pps": round(pps),
        "drop_rate": drop_rate,
        "kernel_drops": result.kernel_drops,
        "rotations": result.rotations,
        "exported": result.exported,
        "meters": {str(w): m for w, m in result.meters.items()},
    }
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"serve ingest: {result.packets} packets in {ingest_s:.2f}s "
        f"({pps:,.0f} pps, {result.drops} drops)"
    )

    update_headline(
        serve_pps=round(pps),
        serve_drop_rate=drop_rate,
        serve_skip_reason=None,
        **environment_fields(),
    )


RECOVERY_JSON_PATH = RESULTS_DIR / "BENCH_serve_recovery.json"


def test_serve_recovery_recorded():
    """Record how fast supervision restores a killed worker.

    A ``kill_worker`` fault (:mod:`repro.faults`) SIGKILLs the worker
    mid-stream; with a restart budget the daemon quarantines the ring,
    respawns, and replays the resident packets.  ``recovery_ms`` is
    the supervisor's own measurement: death detection to the respawn's
    first ring consumption.  Needs the same >= 2 CPUs as the ingest
    bench — on one core the "recovery" time is scheduler time-slicing.
    """
    cpus = os.cpu_count() or 1
    if cpus < 2:
        reason = (
            f"serve recovery latency not measurable on {cpus} CPU: the "
            "listener and worker processes time-slice one core"
        )
        update_headline(
            serve_recovery_ms=None,
            serve_recovery_skip_reason=reason,
            **environment_fields(),
        )
        pytest.skip(reason)

    scale = resolve_scale(None)
    n_flows = max(20_000, int(round(200_000 * scale)))
    trace = CAIDA.generate(n_flows=n_flows, seed=29)
    datagrams = trace_datagrams(trace, packet_rate=PACKET_RATE)

    base = _serve_spec(scale)
    spec = ServeSpec.from_dict(
        {
            **base.to_dict(),
            "max_restarts": 2,
            "faults": [
                {
                    "kind": "kill_worker",
                    "worker": 0,
                    "at_packets": len(trace) // 2,
                }
            ],
        }
    )
    daemon = ServeDaemon(spec, quiet=True)
    address = daemon.bind()
    sent = {}

    def feed() -> None:
        sent["packets"] = replay_datagrams(datagrams, address)
        deadline = time.monotonic() + 300.0
        while (
            daemon.packets_received < sent["packets"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        daemon.request_stop()

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    result = daemon.run(duration=300.0)
    feeder.join(timeout=30.0)

    assert result.packets == sent["packets"] == len(trace)
    assert result.accounting_exact, "fed + drops + lost must equal received"
    assert len(result.restarts) == 1, "the kill fault must fire exactly once"
    recovery_ms = result.restarts[0]["recovery_ms"]
    assert recovery_ms is not None and recovery_ms > 0

    record = {
        "experiment": "serve_recovery",
        "n_flows": n_flows,
        "n_packets": result.packets,
        "cpus": cpus,
        "scale": scale,
        "kernel": kernel_info()["requested"],
        "workers": spec.workers,
        "kill_at_packets": spec.faults[0]["at_packets"],
        "disposition": result.restarts[0]["disposition"],
        "resident_replayed": result.restarts[0]["resident"],
        "degraded_rotations": result.degraded,
        "recovery_ms": round(recovery_ms, 3),
    }
    RECOVERY_JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\nserve recovery: worker restored in {recovery_ms:.1f} ms "
        f"({result.restarts[0]['resident']} resident packets replayed)"
    )

    update_headline(
        serve_recovery_ms=round(recovery_ms, 3),
        serve_recovery_skip_reason=None,
        **environment_fields(),
    )

"""Live passes: a real ``ServeDaemon`` fed over loopback UDP.

Two processes per pass, plus the daemon's own worker:

* the **host** (:func:`host_main`) is spawned fresh, so neither it nor
  the worker it forks inherits the benchmark's trace and datagram
  buffers.  It runs the daemon (listener + one worker, ``block``
  back-pressure, interval rotation, ``store`` sink), then the first
  top-k query over the sealed store, and reports timings, CPU seconds
  and peak RSS from ``getrusage``;
* the **generator** (:func:`replay`, in the calling process) sends the
  pre-encoded datagrams on one UDP socket and keeps at most
  ``IN_FLIGHT_PACKETS`` packets in flight (sent minus the daemon's
  ``packets_received``), so the replay is lossless and the delivered
  rate is the collector's capacity: a closed loop on packets.

The daemon's ``packets_received`` counter is mirrored into a small
memory-mapped file inside the work directory, which is how the
generator sees it; reaching the expected count requests the drain,
exactly as the CLI's replay mode does.
"""

from __future__ import annotations

import resource
import socket
import time
import warnings

import numpy as np

#: Flow-control window of the generator, in packets (546 datagrams of
#: 1,464 bytes, well under the daemon's 4 MiB receive buffer).
IN_FLIGHT_PACKETS = 16_384

#: Generator poll interval while the window is closed.
_POLL_S = 0.001

#: Seconds the window may stay shut before the generator gives up on a
#: daemon that stopped taking packets.
_STALL_S = 30.0


def peak_rss_kb() -> int:
    """This process's peak resident set (``VmHWM``), in KiB.

    ``getrusage`` is no use here: Linux carries ``ru_maxrss`` across
    ``exec``, so a spawned process would report the peak of the
    benchmark process it was forked from.  ``VmHWM`` belongs to the
    current address space, which ``exec`` replaced.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _rusage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "self_cpu": me.ru_utime + me.ru_stime,
        "child_cpu": kids.ru_utime + kids.ru_stime,
        # Workers are forked, not exec'd: their ru_maxrss is their own.
        "child_maxrss_kb": kids.ru_maxrss,
    }


def _daemon_class():
    from repro.serve import ServeDaemon

    class CountingDaemon(ServeDaemon):
        """A ``ServeDaemon`` whose ``packets_received`` counter lives in
        shared memory; reaching ``expected`` requests the drain."""

        def __init__(self, spec, counter, expected: int):
            self._counter = counter
            self._expected = int(expected)
            self.last_packet_at = None
            super().__init__(spec, quiet=True)

        @property
        def packets_received(self) -> int:
            return int(self._counter[0])

        @packets_received.setter
        def packets_received(self, value: int) -> None:
            self._counter[0] = value
            if (
                self._expected
                and value >= self._expected
                and self.last_packet_at is None
            ):
                self.last_packet_at = time.monotonic()
                self.request_stop()

    return CountingDaemon


def _setup_cycles(spec, cycles: int) -> list[float]:
    """Daemon start -> stop with no traffic: spawn the worker, build the
    tables, drain, seal."""
    from repro.serve import ServeDaemon

    times = []
    for _ in range(cycles):
        start = time.perf_counter()
        daemon = ServeDaemon(spec, quiet=True)
        daemon.request_stop()
        daemon.run()
        times.append(time.perf_counter() - start)
    return times


def _run_pass(conn, spec, counter_path: str, expected: int) -> dict:
    from repro.flowdb import FlowStore, execute

    from checks import answer_query, normalize, rotation_digest

    counter = np.memmap(counter_path, dtype=np.int64, mode="r+", shape=(2,))
    counter[:] = 0
    daemon = _daemon_class()(spec, counter, expected)
    address = daemon.bind()
    before = _rusage()
    conn.send(("ready", address))
    result = daemon.run()
    sealed_at = time.monotonic()
    after = _rusage()
    root = spec.pipeline_spec.sinks[0]["params"]["root"]
    answer = execute(FlowStore(root), answer_query())
    answered_at = time.monotonic()
    del counter
    return {
        "last_packet_at": daemon.last_packet_at,
        "sealed_at": sealed_at,
        "answered_at": answered_at,
        "listener_cpu": after["self_cpu"] - before["self_cpu"],
        "worker_cpu": after["child_cpu"] - before["child_cpu"],
        "packets": result.packets,
        "fed": result.fed,
        "drops": result.drops,
        "lost": result.lost,
        "exported": result.exported,
        "accounting_exact": result.accounting_exact,
        "restarts": len(result.restarts),
        "digest": rotation_digest(result.rotation_records),
        "answer": normalize(answer),
    }


def host_main(conn) -> None:
    """Spawned host: serve ``setup`` / ``pass`` commands until ``quit``."""
    # A native workload must not silently fall back to numpy: the
    # worker (forked from here) inherits this filter and dies instead.
    warnings.filterwarnings("error", message="native kernel tier unavailable")
    from repro.serve import ServeSpec

    try:
        while True:
            command = conn.recv()
            if command[0] == "quit":
                break
            try:
                if command[0] == "setup":
                    _, spec, cycles = command
                    reply = ("setup", _setup_cycles(ServeSpec.from_dict(spec), cycles))
                else:
                    _, spec, counter_path, expected = command
                    reply = (
                        "pass",
                        _run_pass(conn, ServeSpec.from_dict(spec), counter_path, expected),
                    )
            except Exception as exc:  # reported to the caller, which fails the run
                reply = ("error", f"{type(exc).__name__}: {exc}")
            conn.send(reply)
        conn.send(("rss", peak_rss_kb(), _rusage()["child_maxrss_kb"]))
    finally:
        conn.close()


def replay(address, datagrams, cum_packets, counter) -> dict:
    """Send every datagram under the in-flight window; returns timings.

    ``counter[0]`` is the daemon's ``packets_received``.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.connect(tuple(address))
    send = sock.send
    n = len(datagrams)
    waited = 0.0
    i = 0
    cpu0 = time.process_time()
    start = progress_at = time.monotonic()
    try:
        while i < n:
            budget = int(counter[0]) + IN_FLIGHT_PACKETS
            j = int(np.searchsorted(cum_packets, budget, side="right"))
            if j <= i:
                t = time.monotonic()
                if t - progress_at > _STALL_S:
                    raise RuntimeError(
                        f"the daemon took no packets for {_STALL_S:.0f}s "
                        f"({int(counter[0])} of {int(cum_packets[-1])} received)"
                    )
                time.sleep(_POLL_S)
                waited += time.monotonic() - t
                continue
            for datagram in datagrams[i:j]:
                send(datagram)
            i = j
            progress_at = time.monotonic()
    finally:
        sock.close()
    return {
        "first_send_at": start,
        "cpu": time.process_time() - cpu0,
        "waited": waited,
        "sent": int(cum_packets[-1]) if n else 0,
    }

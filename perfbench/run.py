"""The repository's benchmark: from datagram to query answer, per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-elephant --seed 1 --seconds 20 --trace 0

One run replays seeded traffic as NetFlow v5 datagrams into a real
``ServeDaemon`` over loopback UDP (one worker, ``block``
back-pressure, interval rotation, a ``store`` sink), queries the
sealed store with a seeded closed-loop mix, and checks every output:
the live per-rotation records against the offline ``Pipeline.run``
of the same spec and trace, every query answer against the answer
computed from the offline rotations.  A mismatch exits non-zero
without printing numbers.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same measurement and then an in-process pass of the same inputs
through each layer's public functions with spans around them
(:mod:`layers`), and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads, metrics and what each
per-layer metric should move are documented in ``BENCHMARK.json``.

Everything the run writes stays under ``.bench_build/`` in the
checkout: the native kernel cache, the flow stores, the span file.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

#: Daemon start -> stop cycles per round for the live ``setup_s``.
SETUP_CYCLES = 4

#: Rounds every run makes however slow the machine, so each median has
#: more than one sample.
MIN_ROUNDS = 2

#: Seconds of each closed-loop query burst, per workload focus.
BURST_SECONDS = {"collect": 2.5, "query": 4.5}

#: Per-query samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: How long a host or query process may take to answer one command.
_REPLY_TIMEOUT_S = 150.0


def _fail(message: str) -> None:
    print(f"perfbench: FAILED: {message}", file=sys.stderr, flush=True)
    raise SystemExit(1)


def _recv(conn, what: str):
    if not conn.poll(_REPLY_TIMEOUT_S):
        _fail(f"no reply from the {what} process within {_REPLY_TIMEOUT_S:.0f}s")
    reply = conn.recv()
    if isinstance(reply, tuple) and reply and reply[0] == "error":
        _fail(f"{what} process: {reply[1]}")
    return reply


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile up to p99 with at
    least ``TAIL_SAMPLES`` samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    pct = min(99.0, 100.0 * (1.0 - TAIL_SAMPLES / n)) if n > TAIL_SAMPLES else 0.0
    index = min(n - 1, max(0, int(round(pct / 100.0 * n)) - 1))
    return pct, ordered[index]


def environment(workload, seed: int) -> dict:
    """The stamp every result carries."""
    import numpy

    from repro.native import kernel_info

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = kernel_info()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": info["compiler"],
        "git_commit": _git_commit(),
        "seed": seed,
        "workload": workload.name,
        "kernel_requested": workload.kernel,
    }


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``:
    on a shared virtual machine, stolen time explains slow runs."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read directly,
    so nothing looks outside the checkout); None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Host:
    """The spawned daemon host (:func:`live.host_main`)."""

    def __init__(self, ctx):
        import live

        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=live.host_main, args=(child,), name="perfbench-host")
        self.proc.start()
        child.close()

    def setup(self, spec, cycles: int) -> list[float]:
        self.conn.send(("setup", spec.to_dict(), cycles))
        return _recv(self.conn, "host")[1]

    def run_pass(self, spec, vantage, counter_path: Path) -> dict:
        import numpy as np

        import live

        counter = np.memmap(counter_path, dtype=np.int64, mode="w+", shape=(2,))
        counter[:] = 0
        counter.flush()
        self.conn.send(("pass", spec.to_dict(), str(counter_path), vantage.packets))
        _, address = _recv(self.conn, "host")
        sent = live.replay(address, vantage.datagrams, vantage.cum_packets, counter)
        _, done = _recv(self.conn, "host")
        del counter
        return {**sent, **done}

    def close(self) -> tuple[int, int]:
        self.conn.send(("quit",))
        _, self_kb, child_kb = _recv(self.conn, "host")
        self.proc.join(30)
        return self_kb, child_kb

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(30)


class QueryClient:
    """The spawned closed-loop query client (:func:`queries.query_main`)."""

    def __init__(self, ctx, specs, expected):
        import queries
        from checks import answer_digest
        from inputs import QUERY_CLASSES

        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=queries.query_main, args=(child,), name="perfbench-query"
        )
        self.proc.start()
        child.close()
        digests = [answer_digest(e) for e in expected]
        self.conn.send(("init", specs, digests, len(QUERY_CLASSES)))

    def burst(self, root: Path, seconds: float) -> None:
        self.conn.send(("burst", str(root), seconds))
        _recv(self.conn, "query")

    def close(self) -> dict:
        self.conn.send(("quit",))
        out = _recv(self.conn, "query")
        self.proc.join(30)
        if out["failure_count"]:
            _fail(f"{out['failure_count']} queries raised, e.g. {out['failures'][0]}")
        if out["mismatch_count"]:
            _fail(
                f"{out['mismatch_count']} query answers differ from the offline "
                f"ground truth (query indices {out['mismatches']})"
            )
        return out

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(30)


def check_pass(vantage, done: dict, answer_expected) -> None:
    """The live gate: lossless, exact accounting, records bit-identical
    to the offline run."""
    from checks import rotation_digest

    if done["sent"] != vantage.packets or done["packets"] != vantage.packets:
        _fail(
            f"{vantage.name}: sent {done['sent']}, daemon received "
            f"{done['packets']}, trace has {vantage.packets} packets"
        )
    if done["fed"] != done["packets"] or done["drops"] or done["lost"]:
        _fail(
            f"{vantage.name}: fed {done['fed']} of {done['packets']} packets "
            f"(drops {done['drops']}, lost {done['lost']})"
        )
    if not done["accounting_exact"] or done["restarts"]:
        _fail(f"{vantage.name}: accounting not exact or a worker restarted")
    if done["exported"] != vantage.exported:
        _fail(
            f"{vantage.name}: exported {done['exported']} records, offline "
            f"exported {vantage.exported}"
        )
    expected = [tuple(d) for d in rotation_digest(vantage.rotations)]
    got = [tuple(d) for d in done["digest"]]
    if got != expected:
        bad = next(
            (e[0] for e, g in zip(expected, got) if e != g),
            min(len(expected), len(got)),
        )
        _fail(
            f"{vantage.name}: live rotation records differ from offline "
            f"Pipeline.run (first differing rotation {bad}; "
            f"{len(got)} live vs {len(expected)} offline rotations)"
        )
    if answer_expected is not None and tuple(done["answer"]) != answer_expected:
        _fail(f"{vantage.name}: the answer_s top-k differs from the ground truth")


def build_store(root: Path, vantages) -> float:
    """The query-mix set-up: ``ingest_rotations`` + ``merge_up`` for
    every vantage into a fresh store; returns seconds."""
    from repro.flowdb import FlowStore

    if root.exists():
        shutil.rmtree(root)
    start = time.perf_counter()
    store = FlowStore(root)
    for v in vantages:
        store.ingest_rotations(v.name, v.records)
        store.merge_up(v.name)
    return time.perf_counter() - start


def measure(workload, seed: int, seconds: float, work: Path, log) -> dict:
    """The untraced measurement.

    There are at least ``MIN_ROUNDS`` rounds, and more while at least
    half of one more still fits in ``seconds``.  Each round takes set-up
    samples, replays every vantage stream through a live daemon into a
    fresh store, and runs a query burst, so every metric's samples
    spread over the whole run rather than one stretch of it.
    """
    from inputs import build_vantages, query_mix, serve_spec

    vantages = build_vantages(workload, seed)
    specs, expected, answer_expected = query_mix(vantages, seed)
    ctx = mp.get_context("spawn")
    out: dict = {
        "vantages": vantages,
        "query_specs": specs,
        "query_expected": expected,
        "answer_expected": answer_expected,
        "setup_samples": [],
        "passes": [],
    }
    host = Host(ctx)
    client = QueryClient(ctx, specs, expected)
    try:
        setup_spec = serve_spec(
            workload, str(work / "setup-store"), "v0", vantages[0].window_packets
        )
        begin = time.monotonic()
        while True:
            if workload.focus == "collect":
                out["setup_samples"] += host.setup(setup_spec, SETUP_CYCLES)
            else:
                out["setup_samples"].append(build_store(work / "store", vantages))
            store = work / f"pass{len(out['passes'])}"
            legs = []
            for index, v in enumerate(vantages):
                spec = serve_spec(workload, str(store), v.name, v.window_packets)
                last = index == len(vantages) - 1
                done = host.run_pass(spec, v, work / "counter.bin")
                check_pass(v, done, answer_expected if last else None)
                legs.append(done)
            out["passes"].append(legs)
            query_root = work / "store" if workload.focus == "query" else store
            client.burst(query_root, BURST_SECONDS[workload.focus])
            log(
                f"round {len(out['passes'])}: "
                + ", ".join(
                    f"{v.name} {v.packets} pkts in "
                    f"{leg['sealed_at'] - leg['first_send_at']:.3f}s"
                    for v, leg in zip(vantages, legs)
                )
            )
            rounds = len(out["passes"])
            elapsed = time.monotonic() - begin
            if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds / 2 > seconds:
                break
            shutil.rmtree(store)
        out["host_rss_kb"], out["worker_rss_kb"] = host.close()
        out["queries"] = client.close()
    finally:
        host.kill()
        client.kill()
    return out


def end_to_end(workload, m: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics (and human-readable notes) from a measurement."""
    notes = []
    pps, answer = [], []
    for legs in m["passes"]:
        packets = sum(leg["sent"] for leg in legs)
        wall = sum(leg["sealed_at"] - leg["first_send_at"] for leg in legs)
        pps.append(packets / wall)
        answer.append(legs[-1]["answered_at"] - legs[-1]["last_packet_at"])
    vantages = m["vantages"]
    accurate = sum(v.accurate for v in vantages) / sum(v.true_pairs for v in vantages)
    lat = m["queries"]["latencies"]
    pct, tail = _tail(lat)
    notes.append(
        f"queries: {len(lat)} samples; query_p99_ms reports p{pct:.2f} "
        f"(the highest percentile <= 99 with >= {TAIL_SAMPLES} samples beyond it)"
    )
    if workload.focus == "query":
        rss_mb = m["queries"]["maxrss_kb"] / 1024.0
        notes.append("peak_rss_mb: the query process")
    else:
        rss_mb = (m["host_rss_kb"] + m["worker_rss_kb"]) / 1024.0
        notes.append("peak_rss_mb: listener + worker")
    metrics = {
        "collect_pps": (statistics.median(pps), "pkt/s"),
        "answer_s": (statistics.median(answer), "s"),
        "accurate_share": (accurate, "share"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_p99_ms": (tail * 1e3, "ms"),
        "query_qps": (len(lat) / sum(lat), "1/s"),
        "setup_s": (statistics.median(m["setup_samples"]), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    return metrics, notes


def process_shares(m: dict) -> dict:
    """Per-process busy shares of the live passes (median over passes)."""
    rows = {"listener": [], "worker": [], "generator": [], "wait": []}
    for legs in m["passes"]:
        wall = sum(leg["sealed_at"] - leg["first_send_at"] for leg in legs)
        rows["listener"].append(sum(leg["listener_cpu"] for leg in legs) / wall)
        rows["worker"].append(sum(leg["worker_cpu"] for leg in legs) / wall)
        rows["generator"].append(sum(leg["cpu"] for leg in legs) / wall)
        rows["wait"].append(sum(leg["waited"] for leg in legs) / wall)
    return {
        "proc.listener.busy_share": (statistics.median(rows["listener"]), "share"),
        "proc.worker.busy_share": (statistics.median(rows["worker"]), "share"),
        "proc.generator.busy_share": (statistics.median(rows["generator"]), "share"),
        "proc.generator.wait_share": (statistics.median(rows["wait"]), "share"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program sources at {src}")
    sys.path.insert(0, str(src))
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    os.environ.pop("REPRO_KERNEL", None)

    from inputs import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    def log(line: str) -> None:
        print(f"perfbench: {line}", flush=True)

    # Warm-up: build the native kernels into their cache before anything
    # is timed (a once-per-machine cost, not a per-start one).
    from repro.native import load_kernels

    if workload.kernel == "native":
        load_kernels()

    env = environment(workload, args.seed)
    work = BUILD / "perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        steal0, total0 = _cpu_ticks()
        m = measure(workload, args.seed, args.seconds, work, log)
        steal1, total1 = _cpu_ticks()
        metrics, notes = end_to_end(workload, m)
        env["kernel_resolved"] = m["vantages"][0].kernel
        env["cpu_steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
        log("env " + json.dumps(env, sort_keys=True))
        for note in notes:
            log(note)
        if args.trace:
            import layers

            per_layer = layers.traced_pass(workload, m, work, BUILD / "perfbench")
            per_layer.update(process_shares(m))
            shown = per_layer
            for name, (value, unit) in sorted(metrics.items()):
                log(f"end-to-end {name} = {value:.6g} {unit}")
        else:
            shown = metrics
        attempted = sum(leg["sent"] for legs in m["passes"] for leg in legs)
        attempted += m["queries"]["queries"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = {
        entry["name"]: entry["unit"]
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"
        ]
    }
    produced = {name: unit for name, (_, unit) in shown.items()}
    if produced != listed:
        _fail(f"metrics differ from BENCHMARK.json: {sorted(set(produced) ^ set(listed))}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(shown.items())
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    sys.exit(code)

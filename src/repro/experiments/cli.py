"""Command-line entry point: experiments, figures, and spec-driven runs.

Examples::

    repro-experiments list
    repro-experiments run fig6 --scale 0.1 --plot
    repro-experiments run fig6 --jobs 4       # multi-core sweep execution
    repro-experiments run all --out results/
    repro-experiments sweep fig4 --seeds 0 1 2 --metric are
    repro-experiments collect --collector hashflow --memory 262144 --flows 20000
    repro-experiments collect --spec collector.json --trace campus
    repro-experiments stream --trace caida --flows 20000 --rotate timeout \\
        --sink netflow --sink jsonl --save-spec pipeline.json
    repro-experiments stream --spec pipeline.json
    repro-experiments collect --collector hashflow --kernel native
    repro-experiments kernels
    repro-experiments serve --listen 2055 --rotate interval:10
    repro-experiments serve --replay caida:5000 --jobs 2 --save-spec serve.json
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.analysis.metrics import flow_set_coverage
from repro.analysis.significance import summarize
from repro.experiments.ascii_plot import PLOT_SPECS, plot_result
from repro.experiments.figures import EXPERIMENTS
from repro.experiments.report import render_table, save_result
from repro.experiments.runner import ExperimentResult, make_workload
from repro.native import KERNELS, kernel_info
from repro.specs import CollectorSpec, SpecError, available_kinds, build, resolve_scale
from repro.traces.profiles import PROFILES


#: ``serve`` flags that override one :class:`~repro.serve.ServeSpec`
#: field each (of a loaded spec too): field -> (flag, value type or
#: choices, help).
_SERVE_OVERRIDES = {
    "workers": ("--jobs", int, "collector worker processes (default: the "
                "spec's, else 1); more than one requires a sharded collector "
                "(composed specs are wrapped automatically)"),
    "stats_interval": ("--stats-interval", float, "seconds between stats "
                       "lines (default: spec, else 5)"),
    "ring_slots": ("--ring-slots", int, "packet slots per worker ring, a "
                   "power of two (default: spec, else 65536)"),
    "backpressure": ("--backpressure", ("block", "drop"), "full-ring policy: "
                     "block (lossless) or drop (shed + count; default: spec, "
                     "else block)"),
    "max_restarts": ("--max-restarts", int, "worker respawns allowed within "
                     "--restart-window before a death is a hard fault "
                     "(default: spec, else 0 = fail fast)"),
    "restart_window": ("--restart-window", float, "sliding window in seconds "
                       "the restart budget counts over (default: spec, else 30)"),
    "on_worker_loss": ("--on-worker-loss", ("auto", "replay", "drop"),
                       "disposition of a dead worker's ring-resident packets: "
                       "replay to the respawn (lossless) or drop as `lost` "
                       "(default: auto — block back-pressure replays, drop "
                       "back-pressure drops)"),
}


def _add_pipeline_flags(parser, spec_type: str, rotate: str) -> None:
    """The flags ``stream`` and ``serve`` share: a spec file, or the
    stages to compose one from (see :func:`_compose_pipeline`)."""
    parser.add_argument(
        "--spec",
        metavar="FILE.json",
        default=None,
        help=f"run a {spec_type} JSON file (the stage flags are ignored)",
    )
    parser.add_argument(
        "--collector",
        metavar="KIND",
        default="hashflow",
        help="registered collector kind (default: hashflow)",
    )
    parser.add_argument(
        "--memory",
        type=int,
        default=None,
        help="collector memory budget in bytes (default: the paper's 1 MB "
        "budget at the REPRO_SCALE factor)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="size factor applied to the memory budget (default: REPRO_SCALE "
        "env or 0.1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="hash / trace seed")
    parser.add_argument(
        "--rotate",
        metavar="POLICY",
        default=rotate,
        help="rotation policy: 'count:N' (N-packet epochs), 'interval:W' "
        "(W-second windows), 'timeout[:INACTIVE[,ACTIVE[,SWEEP]]]' (RFC "
        "3954 expiry), or 'none' (one end-of-stream export); "
        f"default: {rotate}",
    )
    parser.add_argument(
        "--sink",
        metavar="SINK",
        action="append",
        default=None,
        help="sink to attach (repeatable): netflow, jsonl[:PATH], csv[:PATH], "
        "archive, heavy_hitters:T, cardinality, anomaly[:MIN_FANOUT], "
        "store:DIR[,VANTAGE] (default: netflow + archive)",
    )
    parser.add_argument(
        "--save-spec",
        metavar="FILE.json",
        default=None,
        help=f"write the run's {spec_type} to a JSON file",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the HashFlow paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "list", help="list available experiments and registered collector kinds"
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (e.g. fig6) or 'all'")
    run.add_argument(
        "--scale",
        type=float,
        default=None,
        help="size factor vs the paper (default: REPRO_SCALE env or 0.1; "
        "1.0 = paper scale)",
    )
    run.add_argument("--seed", type=int, default=0, help="experiment seed")
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep-shaped experiments (default: "
        "REPRO_JOBS env or serial; 0 = one per CPU); results are "
        "bit-identical at any job count",
    )
    run.add_argument(
        "--out", default=None, help="directory to save rendered tables into"
    )
    run.add_argument(
        "--plot",
        action="store_true",
        help="also render the figure as ASCII charts (line figures only)",
    )

    sweep = sub.add_parser(
        "sweep", help="run one experiment across seeds and report mean/std"
    )
    sweep.add_argument("experiment", help="experiment id (e.g. fig4)")
    sweep.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2], help="seeds to run"
    )
    sweep.add_argument("--scale", type=float, default=None)
    sweep.add_argument(
        "--metric",
        default=None,
        help="numeric column to aggregate (default: last column)",
    )

    collect = sub.add_parser(
        "collect",
        help="build a collector from the registry, replay a trace, report metrics",
    )
    source = collect.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--collector",
        metavar="KIND",
        help=f"registered collector kind (one of: {', '.join(available_kinds())})",
    )
    source.add_argument(
        "--spec",
        metavar="FILE.json",
        help="build from a CollectorSpec JSON file instead of a kind name",
    )
    collect.add_argument(
        "--memory",
        type=int,
        default=None,
        help="memory budget in bytes (sized via the kind's registered rule)",
    )
    collect.add_argument("--seed", type=int, default=None, help="hash seed override")
    collect.add_argument(
        "--trace",
        default="caida",
        choices=sorted(PROFILES),
        help="synthetic trace profile to replay (default: caida)",
    )
    collect.add_argument(
        "--flows", type=int, default=20_000, help="flows in the replayed trace"
    )
    collect.add_argument(
        "--kernel",
        choices=KERNELS,
        default=None,
        help="execution tier (native = compiled C kernels, bit-identical "
        "to numpy; default: REPRO_KERNEL env or numpy)",
    )
    collect.add_argument(
        "--save-spec",
        metavar="FILE.json",
        default=None,
        help="write the built collector's spec to a JSON file",
    )

    stream = sub.add_parser(
        "stream",
        help="run a streaming pipeline: source -> collector -> rotation -> sinks",
    )
    _add_pipeline_flags(stream, "PipelineSpec", rotate="timeout")
    stream.add_argument(
        "--trace",
        default="caida",
        choices=sorted(PROFILES),
        help="synthetic trace profile to stream (default: caida)",
    )
    stream.add_argument(
        "--flows", type=int, default=20_000, help="flows in the streamed trace"
    )
    stream.add_argument(
        "--kernel",
        choices=KERNELS,
        default=None,
        help="collector execution tier (native = compiled C kernels, "
        "bit-identical to numpy; default: REPRO_KERNEL env or numpy)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the live collection daemon: UDP NetFlow v5 ingest over "
        "shared-memory rings, rotating under load",
    )
    _add_pipeline_flags(serve, "ServeSpec", rotate="interval:10")
    serve.add_argument(
        "--listen",
        metavar="[HOST:]PORT",
        default=None,
        help="listen address override (port 0 binds an ephemeral port and "
        "prints it; default: the spec's, else 127.0.0.1:2055)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds to serve before draining (default: until SIGTERM/SIGINT; "
        "with --replay and no duration, the daemon drains after the replay)",
    )
    serve.add_argument(
        "--replay",
        metavar="PROFILE:FLOWS[:PPS]",
        default=None,
        help="soak mode: replay a synthetic trace into the daemon over "
        "loopback UDP (unpaced unless PPS is given); REPRO_FAULTS "
        "datagram_chaos entries mutate the replayed stream",
    )
    for name, (flag, kind, text) in _SERVE_OVERRIDES.items():
        options = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        serve.add_argument(flag, dest=name, default=None, help=text, **options)

    query = sub.add_parser(
        "query",
        help="query a flow store: ingest archives, merge the hierarchy, "
        "answer topk/lookup/cardinality from summaries",
    )
    query.add_argument(
        "action",
        choices=("ingest", "merge", "topk", "lookup", "cardinality", "ls"),
        help="what to do against the store",
    )
    query.add_argument(
        "--store",
        metavar="DIR",
        required=True,
        help="flow store root directory (created on first ingest)",
    )
    query.add_argument(
        "--vantage",
        metavar="NAME",
        action="append",
        default=None,
        help="vantage to ingest into / query over (repeatable for "
        "queries; default: every vantage in the store)",
    )
    query.add_argument(
        "--archive",
        metavar="DIR",
        default=None,
        help="ingest: a durable rotation-archive directory (MANIFEST.json)",
    )
    query.add_argument(
        "--nfv5",
        metavar="FILE",
        default=None,
        help="ingest: a raw concatenated NetFlow v5 capture (one window)",
    )
    query.add_argument(
        "--append",
        action="store_true",
        help="ingest: place new windows after the vantage's existing ones",
    )
    query.add_argument(
        "-k", type=int, default=10, help="topk: result size (default 10)"
    )
    query.add_argument(
        "--key",
        metavar="KEY",
        default=None,
        help="lookup: packed flow key, or SRCIP:SPORT-DSTIP:DPORT/PROTO",
    )
    query.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="answer over each vantage's most recent N windows",
    )
    query.add_argument(
        "--start", type=int, default=None, help="lowest window index included"
    )
    query.add_argument(
        "--stop", type=int, default=None, help="highest window index, inclusive"
    )
    query.add_argument(
        "--merge",
        choices=("max", "sum"),
        default="max",
        help="cross-vantage merge: max (duplicate sightings, default) "
        "or sum (disjoint shares)",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON result instead of a table",
    )

    sub.add_parser(
        "kernels",
        help="report kernel-tier availability: compiler, build cache, library",
    )
    return parser


def _parse_rotation(text: str) -> dict | None:
    """Parse a ``--rotate`` value into a rotation stage spec."""
    name, _, arg = text.partition(":")
    if name == "none":
        if arg:
            raise SystemExit(f"--rotate none takes no argument: {text!r}")
        return None
    if name == "count":
        if not arg:
            raise SystemExit("--rotate count needs a packet budget (count:N)")
        return {"kind": "count", "params": {"epoch_packets": int(arg)}}
    if name == "interval":
        if not arg:
            raise SystemExit("--rotate interval needs a window (interval:SECONDS)")
        return {"kind": "interval", "params": {"window": float(arg)}}
    if name == "timeout":
        params = {}
        if arg:
            values = [float(v) for v in arg.split(",")]
            keys = ("inactive_timeout", "active_timeout", "expiry_interval")
            if len(values) > len(keys):
                raise SystemExit(f"--rotate timeout takes at most 3 values: {text!r}")
            params = dict(zip(keys, values))
            if "expiry_interval" in params:
                params["expiry_interval"] = int(params["expiry_interval"])
        return {"kind": "timeout", "params": params}
    raise SystemExit(f"unknown rotation policy {text!r}")


def _parse_sink(text: str) -> dict:
    """Parse a ``--sink`` value into a sink stage spec."""
    name, _, arg = text.partition(":")
    if name in ("netflow", "netflow_v5", "archive", "cardinality"):
        if arg:
            raise SystemExit(f"--sink {name} takes no argument: {text!r}")
        return {"kind": "netflow_v5" if name == "netflow" else name}
    if name in ("jsonl", "csv"):
        return {"kind": name, "params": {"path": arg} if arg else {}}
    if name == "anomaly":
        # Optional fan-out threshold: anomaly:MIN_FANOUT.
        return {"kind": "anomaly",
                "params": {"min_fanout": int(arg)} if arg else {}}
    if name in ("heavy_hitters", "hh"):
        if not arg:
            raise SystemExit("--sink heavy_hitters needs a threshold (heavy_hitters:T)")
        return {"kind": "heavy_hitters", "params": {"threshold": int(arg)}}
    if name == "store":
        if not arg:
            raise SystemExit(
                "--sink store needs a root directory (store:DIR[,VANTAGE])"
            )
        root, _, vantage = arg.partition(",")
        params = {"root": root}
        if vantage:
            params["vantage"] = vantage
        return {"kind": "store", "params": params}
    raise SystemExit(f"unknown sink {text!r}")


def _parse_listen(text: str) -> tuple[str, int]:
    """Parse a ``--listen`` value (``[HOST:]PORT``) into an address."""
    host, _, port = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"bad --listen address {text!r} (expected [HOST:]PORT)")


def _parse_replay(text: str) -> tuple[str, int, float | None]:
    """Parse a ``--replay`` value (``PROFILE:FLOWS[:PPS]``)."""
    parts = text.split(":")
    if len(parts) not in (2, 3) or parts[0] not in PROFILES:
        raise SystemExit(
            f"bad --replay {text!r} (expected PROFILE:FLOWS[:PPS] with a "
            f"profile from: {', '.join(sorted(PROFILES))})"
        )
    try:
        flows = int(parts[1])
        pps = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise SystemExit(f"bad --replay {text!r} (FLOWS and PPS must be numbers)")
    return parts[0], flows, pps


def _compose_pipeline(args, source: dict, workers: int = 1, kernel: str | None = None):
    """The :class:`~repro.stream.PipelineSpec` ``stream`` and ``serve``
    compose from their shared flags around ``source``.

    Composed specs carry fully resolved collector params: the memory
    budget and scale are applied once, here (without an explicit budget
    the paper's 1 MB default is sized at REPRO_SCALE).  Multi-worker
    serving needs a home shard per flow key, so with ``workers > 1`` a
    plain collector is wrapped one-shard-per-worker.
    """
    from repro.stream import PipelineSpec

    scale = args.scale
    if args.memory is None and scale is None:
        scale = resolve_scale(None)
    overrides = {"kernel": kernel} if kernel else {}
    collector = build(
        args.collector, memory_bytes=args.memory, scale=scale, seed=args.seed,
        **overrides,
    ).spec.to_dict()
    if workers > 1 and collector["kind"] != "sharded":
        collector = {
            "kind": "sharded",
            "params": {"collector": collector, "n_shards": workers, "seed": args.seed},
        }
    return PipelineSpec(
        source=source,
        collector=collector,
        rotation=_parse_rotation(args.rotate),
        sinks=[_parse_sink(s) for s in (args.sink or ["netflow", "archive"])],
    )


def _add_export_rows(table: ExperimentResult, result) -> None:
    """The rows ``stream`` and ``serve`` share: rotations, exports,
    flows and each sink's summary."""
    table.add_row(metric="rotations", value=result.rotations)
    table.add_row(metric="exported_records", value=result.exported)
    table.add_row(metric="flows", value=len(result.records))
    for label, summary in result.sinks.items():
        for key, value in summary.items():
            table.add_row(metric=f"{label}.{key}", value=value)


def run_serve(args) -> int:
    """Build (or load) a serve spec and run the live collection daemon."""
    import signal

    from repro.serve import ServeDaemon, ServeSpec

    replay = _parse_replay(args.replay) if args.replay else None
    overrides = {
        name: getattr(args, name)
        for name in _SERVE_OVERRIDES
        if getattr(args, name) is not None
    }
    try:
        if args.spec:
            spec = ServeSpec.load(args.spec)
            if overrides:
                spec = ServeSpec.from_dict({**spec.to_dict(), **overrides})
        else:
            udp = {"kind": "udp", "params": {"host": "127.0.0.1", "port": 2055}}
            pipeline = _compose_pipeline(args, udp, overrides.get("workers", 1))
            spec = ServeSpec(pipeline=pipeline.to_dict(), **overrides)
        if args.listen:
            spec = spec.with_listen(*_parse_listen(args.listen))
        if args.save_spec:
            spec.save(args.save_spec)
            print(f"# serve spec saved to {args.save_spec}")
        daemon = ServeDaemon(spec)
    except (SpecError, OSError, ValueError) as exc:
        print(f"cannot build serve daemon: {exc}", file=sys.stderr)
        return 2

    signals = (signal.SIGTERM, signal.SIGINT)
    previous = [signal.signal(s, lambda *_: daemon.request_stop()) for s in signals]
    try:
        return _serve(daemon, args, replay)
    finally:
        for signum, handler in zip(signals, previous):
            signal.signal(signum, handler)


def _serve(daemon, args, replay) -> int:
    """Bind, run (with an optional loopback replay) and report."""
    import threading

    from repro.serve import replay_trace

    spec = daemon.spec
    try:
        address = daemon.bind()
    except OSError as exc:
        print(f"cannot bind {spec.listen[0]}:{spec.listen[1]}: {exc}", file=sys.stderr)
        return 2

    replayer = None
    replayed = {"packets": 0}
    if replay is not None:
        profile, flows, pps = replay
        trace = PROFILES[profile].generate(n_flows=flows, seed=args.seed)
        packet_rate = spec.pipeline_spec.packet_rate
        drain_after = args.duration is None

        def _replay() -> None:
            replayed["packets"] = replay_trace(
                trace,
                address,
                packet_rate=packet_rate,
                pps=pps,
                faults=daemon.fault_plan,
            )
            if drain_after:
                # Everything was sent over loopback; once the daemon has
                # pulled it all off the socket, ask for the drain.
                deadline = time.monotonic() + 30.0
                while (
                    daemon.packets_received < replayed["packets"]
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                daemon.request_stop()

        replayer = threading.Thread(target=_replay, name="serve-replay", daemon=True)
        replayer.start()

    try:
        result = daemon.run(duration=args.duration)
    except RuntimeError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    if replayer is not None:
        replayer.join(timeout=10.0)

    table = ExperimentResult(
        experiment_id="serve",
        title=f"serve daemon ({spec.workers} worker(s), "
        f"{spec.backpressure} back-pressure)",
        columns=["metric", "value"],
        params={"workers": spec.workers, "backpressure": spec.backpressure},
    )
    table.add_row(metric="datagrams", value=result.datagrams)
    table.add_row(metric="packets", value=result.packets)
    if replay is not None:
        table.add_row(metric="replayed_packets", value=replayed["packets"])
    table.add_row(metric="drops", value=result.drops)
    table.add_row(metric="fed", value=result.fed)
    table.add_row(metric="lost", value=result.lost)
    table.add_row(metric="restarts", value=len(result.restarts))
    table.add_row(
        metric="degraded_rotations",
        value=",".join(str(r) for r in result.degraded) or "none",
    )
    if result.recv_errors:
        table.add_row(
            metric="recv_errors",
            value=",".join(f"{k}:{v}" for k, v in sorted(result.recv_errors.items())),
        )
    table.add_row(
        metric="accounting",
        value="exact" if result.accounting_exact else "VIOLATED",
    )
    _add_export_rows(table, result)
    print(render_table(table))
    print(f"# elapsed: {result.elapsed:.1f}s")
    if not result.accounting_exact:
        print(
            f"serve accounting violated: fed={result.fed} + drops={result.drops} "
            f"+ lost={result.lost} != received={result.packets}",
            file=sys.stderr,
        )
        return 1
    return 0


def run_stream(args) -> int:
    """Build (or load) a pipeline spec, run it, verify NetFlow parse-back."""
    from repro.stream import NetFlowV5Sink, Pipeline, PipelineSpec

    try:
        if args.spec:
            pipeline_spec = PipelineSpec.load(args.spec)
        else:
            params = {"profile": args.trace, "n_flows": args.flows, "seed": args.seed}
            source = {"kind": "synthetic", "params": params}
            pipeline_spec = _compose_pipeline(args, source, kernel=args.kernel)
        pipeline = Pipeline.from_spec(pipeline_spec)
        if args.save_spec:
            pipeline_spec.save(args.save_spec)
            print(f"# pipeline spec saved to {args.save_spec}")
    except (SpecError, OSError, ValueError) as exc:
        print(f"cannot build pipeline: {exc}", file=sys.stderr)
        return 2

    print(f"# pipeline: {pipeline_spec!r}")
    start = time.perf_counter()
    result = pipeline.run()
    elapsed = time.perf_counter() - start
    table = ExperimentResult(
        experiment_id="stream",
        title=f"streaming pipeline ({pipeline_spec.source['kind']} -> "
        f"{pipeline_spec.collector['kind']})",
        columns=["metric", "value"],
        params={"source": pipeline_spec.source["kind"]},
    )
    table.add_row(metric="packets", value=result.packets)
    _add_export_rows(table, result)
    print(render_table(table))
    print(f"# elapsed: {elapsed:.1f}s")

    # Every NetFlow sink must decode back to exactly the records the
    # pipeline reports — the wire format loses nothing.
    for sink in pipeline.sinks:
        if isinstance(sink, NetFlowV5Sink):
            ok = sink.parse_back() == result.records
            print(f"# netflow parse-back: {'OK' if ok else 'MISMATCH'}")
            if not ok:
                return 1
    return 0


def _parse_flow_key(text: str) -> int:
    """Parse a ``--key`` value: packed int or SRCIP:SPORT-DSTIP:DPORT/PROTO."""
    try:
        return int(text, 0)
    except ValueError:
        pass
    try:
        endpoints, _, proto = text.rpartition("/")
        src, _, dst = endpoints.partition("-")
        src_ip, _, src_port = src.rpartition(":")
        dst_ip, _, dst_port = dst.rpartition(":")
        from repro.flow.key import FlowKey

        return FlowKey.from_text(
            src_ip, dst_ip, int(src_port), int(dst_port), int(proto)
        ).pack()
    except (ValueError, TypeError):
        raise SystemExit(
            f"bad --key {text!r} (expected a packed integer or "
            "SRCIP:SPORT-DSTIP:DPORT/PROTO)"
        )


def run_query(args) -> int:
    """Run one flow-store action: ingest/merge or a summary query."""
    import json as _json

    from repro.flowdb import FlowStore, QuerySpec, StoreError, execute
    from repro.stream.durable import ArchiveError

    try:
        store = FlowStore(args.store)
    except (SpecError, StoreError, OSError) as exc:
        print(f"cannot open store: {exc}", file=sys.stderr)
        return 2
    vantages = args.vantage or []

    try:
        if args.action == "ingest":
            if bool(args.archive) == bool(args.nfv5):
                raise SystemExit("ingest needs exactly one of --archive / --nfv5")
            vantage = vantages[0] if vantages else "default"
            if args.archive:
                windows = store.ingest_archive(vantage, args.archive, args.append)
            else:
                windows = store.ingest_netflow_file(vantage, args.nfv5, args.append)
            print(
                f"# ingested {len(windows)} windows into "
                f"{vantage!r}: {windows}"
            )
            return 0
        if args.action == "merge":
            for vantage in vantages or store.vantages():
                written = store.merge_up(vantage)
                levels = sorted({ref.level for ref in written})
                print(
                    f"# merged {vantage!r}: {len(written)} parent nodes "
                    f"at levels {levels or '(up to date)'}"
                )
            return 0
        if args.action == "ls":
            info = store.describe()
            if args.json:
                print(_json.dumps(info, sort_keys=True))
                return 0
            print(f"# store {info['root']} (fanout {info['fanout']})")
            for vantage, detail in info["vantages"].items():
                windows = detail["windows"]
                span = (
                    f"{windows[0]}..{windows[-1]}" if windows else "(empty)"
                )
                degraded = detail["degraded_windows"]
                print(
                    f"{vantage:16s} windows {span} ({len(windows)}), "
                    f"levels {sorted(detail['levels'])}"
                    + (f", degraded {degraded}" if degraded else "")
                )
            return 0

        spec = QuerySpec(
            op=args.action,
            k=args.k,
            key=None if args.key is None else _parse_flow_key(args.key),
            vantages=tuple(vantages),
            last=args.last,
            start=args.start,
            stop=args.stop,
            merge=args.merge,
        )
        answer = execute(store, spec)
    except (ArchiveError, StoreError, SpecError, OSError) as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(_json.dumps(answer, sort_keys=True))
        return 0
    covered = {v: p["windows"] for v, p in answer["vantages"].items()}
    print(f"# {spec.op} over {covered} (merge={spec.merge})")
    if answer["degraded"]:
        tainted = {
            v: p["degraded_windows"]
            for v, p in answer["vantages"].items()
            if p["degraded_windows"]
        }
        print(f"# WARNING degraded windows covered: {tainted}")
    table = ExperimentResult(
        experiment_id="query",
        title=f"flow store {spec.op}",
        columns=["metric", "value"],
        params={"store": args.store, "op": spec.op},
    )
    if spec.op == "topk":
        table.columns = ["rank", "flow", "packets"]
        for rank, row in enumerate(answer["results"], 1):
            table.add_row(rank=rank, flow=row["flow"], packets=row["packets"])
    elif spec.op == "lookup":
        table.add_row(metric="flow", value=answer["flow"])
        table.add_row(metric="found", value=answer["found"])
        table.add_row(metric="packets", value=answer["packets"])
        table.add_row(metric="octets", value=answer["octets"])
        for vantage, detail in answer["by_vantage"].items():
            table.add_row(metric=f"{vantage}.packets", value=detail["packets"])
            for point in detail["series"]:
                table.add_row(
                    metric=f"{vantage}.w{point['window']}",
                    value=point["packets"],
                )
    else:
        table.add_row(metric="flows", value=answer["flows"])
        for vantage, flows in answer["by_vantage"].items():
            table.add_row(metric=f"{vantage}.flows", value=flows)
    print(render_table(table))
    return 0


def run_experiment(
    name: str,
    scale: float | None,
    seed: int,
    out: str | None,
    plot: bool = False,
    jobs: int | None = None,
) -> None:
    """Run one registered experiment, print it, optionally save/plot it."""
    func = EXPERIMENTS[name]
    kwargs = {"scale": scale, "seed": seed}
    if "jobs" in inspect.signature(func).parameters:
        # Sweep-shaped experiments execute their cell plan through
        # repro.parallel; model-only figures have no jobs parameter.
        kwargs["jobs"] = jobs
    start = time.perf_counter()
    result = func(**kwargs)
    elapsed = time.perf_counter() - start
    print(render_table(result))
    print(f"# elapsed: {elapsed:.1f}s\n")
    if plot:
        if name in PLOT_SPECS:
            print(plot_result(result))
            print()
        else:
            print(f"# (no chart layout for {name}; table only)\n")
    if out:
        path = save_result(result, out)
        print(f"# saved to {path}\n")


def run_sweep(
    name: str, seeds: list[int], scale: float | None, metric: str | None
) -> None:
    """Run an experiment per seed and summarize one numeric column.

    The metric is aggregated per (non-seed) row group; groups are keyed
    by every non-metric column so the output mirrors the single-run
    table with mean ± std cells.
    """
    func = EXPERIMENTS[name]
    results = [func(scale=scale, seed=seed) for seed in seeds]
    columns = results[0].columns
    metric = metric or columns[-1]
    if metric not in columns:
        raise SystemExit(f"metric {metric!r} not in columns {columns}")
    key_cols = [c for c in columns if c != metric]
    grouped: dict[tuple, list[float]] = {}
    for result in results:
        for row in result.rows:
            key = tuple(row.get(c) for c in key_cols)
            value = row.get(metric)
            if isinstance(value, (int, float)):
                grouped.setdefault(key, []).append(float(value))
    header = " | ".join([*key_cols, f"{metric} (mean ± std over {len(seeds)} seeds)"])
    print(f"# sweep {name}: seeds={seeds}")
    print(header)
    print("-" * len(header))
    for key, values in grouped.items():
        stats = summarize(values)
        cells = [str(k) for k in key]
        cells.append(f"{stats.mean:.4f} ± {stats.std:.4f}")
        print(" | ".join(cells))


def run_collect(args) -> int:
    """Build a collector (kind or spec file), replay a trace, report."""
    try:
        source = CollectorSpec.load(args.spec) if args.spec else args.collector
        overrides = {"kernel": args.kernel} if args.kernel else {}
        collector = build(
            source, memory_bytes=args.memory, seed=args.seed, **overrides
        )
    except (SpecError, OSError, ValueError) as exc:
        # ValueError: constructor validation of sized params (e.g. a
        # budget too small to fit even one cell per table).
        print(f"cannot build collector: {exc}", file=sys.stderr)
        return 2
    print(f"# collector: {collector!r}")
    print(f"# spec: {collector.spec.to_json()}")
    workload = make_workload(PROFILES[args.trace], args.flows, seed=args.seed or 0)
    start = time.perf_counter()
    workload.feed(collector)
    elapsed = time.perf_counter() - start
    records = collector.records()
    result = ExperimentResult(
        experiment_id="collect",
        title=f"{collector.name} on {args.trace} ({args.flows} flows)",
        columns=["metric", "value"],
        params={"trace": args.trace, "flows": args.flows},
    )
    result.add_row(metric="packets", value=workload.num_packets)
    result.add_row(metric="records", value=len(records))
    result.add_row(
        metric="fsc", value=round(flow_set_coverage(records, workload.true_sizes), 4)
    )
    result.add_row(metric="size_are", value=round(workload.size_are(collector), 4))
    result.add_row(
        metric="cardinality_est", value=round(collector.estimate_cardinality(), 1)
    )
    result.add_row(metric="memory_bytes", value=int(collector.memory_bytes))
    print(render_table(result))
    print(f"# elapsed: {elapsed:.1f}s")
    if args.save_spec:
        collector.spec.save(args.save_spec)
        print(f"# spec saved to {args.save_spec}")
    return 0


def run_kernels() -> int:
    """Report kernel-tier availability (the ``kernels`` subcommand)."""
    info = kernel_info()
    print("# kernel tiers")
    print(f"requested        : {info['requested']} "
          f"(--kernel / REPRO_KERNEL; default numpy)")
    print(f"native available : {'yes' if info['available'] else 'no'}")
    print(f"compiler         : {info['compiler'] or '(none found)'}")
    print(f"abi version      : {info['abi_version']}")
    print(f"source           : {info['source']}")
    print(f"build cache      : {info['cache_dir']} (REPRO_NATIVE_CACHE)")
    if info["library"]:
        print(f"library          : {info['library']}")
    if info["error"]:
        print(f"error            : {info['error']}")
    return 0 if info["available"] else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "kernels":
        return run_kernels()
    if args.command == "list":
        print("# experiments")
        for name, func in EXPERIMENTS.items():
            doc = (func.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        print("\n# collector kinds (repro.specs registry)")
        for kind in available_kinds():
            print(kind)
        return 0
    if args.command == "collect":
        return run_collect(args)
    if args.command == "stream":
        return run_stream(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "query":
        return run_query(args)
    if args.command == "sweep":
        if args.experiment not in EXPERIMENTS:
            print(f"unknown experiment {args.experiment!r}", file=sys.stderr)
            return 2
        run_sweep(args.experiment, args.seeds, args.scale, args.metric)
        return 0
    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {', '.join(EXPERIMENTS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    for name in names:
        run_experiment(
            name, args.scale, args.seed, args.out, plot=args.plot, jobs=args.jobs
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

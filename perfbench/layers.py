"""The traced run: the workload's inputs through each layer, in one process.

The live daemon splits a packet's path over two processes; here the
same public calls run in order in this process, so each layer's time
can be measured on its own:

1. ``decode_datagram`` per datagram;
2. ``PacketRing.try_push`` / ``pop`` (a pop takes up to the pipeline's
   ``chunk_size`` packets, as the worker does when its ring is
   backlogged);
3. ``keys_from_halves``;
4. ``StreamFeeder.feed``, with spans on the collector's
   ``process_batch`` and the rotation policy's ``collect``;
5. the worker -> listener export message pickled and unpickled, as a
   ``multiprocessing`` connection does;
6. ``Sink.emit`` (the ``store`` sink);
7. ``FlowStoreSink.close``: ``FlowStore.ingest_rotations``, then
   ``merge_up``;
8. ``execute`` for the answer query and a fixed slice of the query
   mix, with spans on ``FlowStore.plan`` / ``nodes`` / ``leaf_windows``
   / ``load_node``, ``merge_summaries`` and ``FlowSummary.top_k`` /
   ``lookup`` / ``cardinality``.

Spans record name, start, end and parent, stay in memory, and are
written to ``spans-<workload>.npz`` at the end.  A layer's self time
is its spans' duration minus the time their child spans cover.  The
same pass runs once more without spans; the difference is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import pickle
import shutil
import time
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

#: Queries of the mix the traced pass runs after the answer query.
TRACED_QUERIES = 48


class Spans:
    """In-memory spans plus per-span-name work counters."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open = [-1]

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span named ``name`` around every call;
        ``count(args, result)`` adds to ``counts[name]``."""
        names, start, end, parent, stack = (
            self.names, self.start, self.end, self.parent, self._open
        )
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if count is not None:
                counts[name] += count(args, result)
            return result

        return traced

    def totals(self) -> tuple[dict, dict, dict]:
        """Per name: (calls, total seconds, self seconds)."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        covered = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for name, d, c in zip(self.names, dur.tolist(), covered.tolist()):
            calls[name] += 1
            total[name] += d
            own[name] += d - c
        return calls, total, own

    def save(self, path: Path) -> None:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        np.savez(
            path,
            names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
        )


class NoSpans:
    """The untraced twin: every call goes straight through."""

    enabled = False

    def wrap(self, name: str, fn, count=None):
        return fn


@contextlib.contextmanager
def _patched(patches):
    """Temporarily replace attributes: ``(owner, name, value)`` triples."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def _ingest(spans, workload, vantage, store_root: Path) -> dict:
    """Steps 1-7 for one vantage stream; returns what was exported."""
    from repro.flowdb import FlowStore
    from repro.serve import PacketRing, decode_datagram, keys_from_halves
    from repro.serve.ring import DEFAULT_RING_SLOTS
    from repro.specs import build as build_collector
    from repro.stream.pipeline import StreamFeeder
    from repro.stream.rotation import build_rotation
    from repro.stream.sinks import build_sink

    from inputs import serve_spec

    spec = serve_spec(
        workload, str(store_root), vantage.name, vantage.window_packets
    ).pipeline_spec
    chunk = spec.chunk_size
    collector = build_collector(spec.collector)
    rotation = build_rotation(spec.rotation)
    sink = build_sink(spec.sinks[0])
    meter = collector.meter
    tracing = spans.enabled

    def update_batch(batch):
        before = (meter.reads + meter.writes, collector.promotions)
        update(batch)
        counts["core.update.mem_ops"] += meter.reads + meter.writes - before[0]
        counts["core.update.promotions"] += collector.promotions - before[1]

    counts = getattr(spans, "counts", defaultdict(float))
    update = spans.wrap(
        "core.update", collector.process_batch, lambda a, r: len(a[0])
    )
    collector.process_batch = update_batch if tracing else update
    rotation.collect = spans.wrap(
        "stream.rotation.collect", rotation.collect, lambda a, r: len(r)
    )

    def roundtrip(records, rotation_index, now):
        data = ForkingPickler.dumps(("export", 0, rotation_index, now, records))
        counts["serve.handoff.bytes"] += len(data)
        return pickle.loads(data)

    handoff = spans.wrap("serve.handoff", roundtrip, lambda a, r: len(a[0]))
    sink_emit = spans.wrap("stream.sinks.emit", sink.emit, lambda a, r: len(a[0]))

    def emit(records, rotation_index, now):
        _, _, rotation_index, now, records = handoff(records, rotation_index, now)
        sink_emit(records, rotation_index, now)

    feeder = StreamFeeder(collector, rotation, emit, chunk_size=chunk)
    feed = spans.wrap("stream.feed", feeder.feed)
    decode = spans.wrap("serve.codec.decode", decode_datagram, lambda a, r: len(r[0]))
    keys_of = spans.wrap(
        "serve.codec.keys_from_halves", keys_from_halves, lambda a, r: len(r)
    )
    ring = PacketRing.create(DEFAULT_RING_SLOTS, label="perfbench")
    try:
        push = spans.wrap("serve.ring.push", ring.try_push, lambda a, r: r)
        pop = spans.wrap("serve.ring.pop", ring.pop, lambda a, r: len(r[0]))

        def drain(least: int) -> None:
            while ring.occupancy() >= least:
                lo, hi, _, timestamps = pop(chunk)
                feed(keys_of(lo, hi), lo, hi, None, timestamps)

        for datagram in vantage.datagrams:
            lo, hi, sizes, timestamps = decode(datagram)
            if push(lo, hi, sizes, timestamps) != len(lo):
                raise RuntimeError("in-process ring overflowed")
            drain(chunk)
        drain(1)
        feeder.finish()
    finally:
        ring.unlink()
    ingest = spans.wrap(
        "flowdb.store.ingest", FlowStore.ingest_rotations, lambda a, r: sum(map(len, a[2].values()))
    )
    merge_up = spans.wrap("flowdb.store.merge_up", FlowStore.merge_up, lambda a, r: len(r))
    with _patched(
        [(FlowStore, "ingest_rotations", ingest), (FlowStore, "merge_up", merge_up)]
    ):
        spans.wrap("flowdb.sink.close", sink.close)()
    return {
        "by_rotation": sink.by_rotation,
        "main_cells": int(spec.collector["params"]["main_cells"]),
    }


def _queries(spans, store_root: Path, specs: list, expected: list) -> int:
    """Step 8; returns the number of queries run."""
    import repro.flowdb.query as query_module
    from repro.flowdb import FlowStore, FlowSummary, QuerySpec, execute

    from checks import normalize

    def rows(args, result):
        return sum(len(s) for s in args[0] if s is not None)

    def node_bytes(args, result):
        return result.lo.nbytes + result.hi.nbytes + result.packets.nbytes + result.octets.nbytes

    patches = [
        (FlowStore, "plan", spans.wrap("flowdb.store.plan", FlowStore.plan)),
        (FlowStore, "nodes", spans.wrap("flowdb.store.nodes", FlowStore.nodes)),
        (
            FlowStore,
            "leaf_windows",
            spans.wrap("flowdb.store.leaf_windows", FlowStore.leaf_windows),
        ),
        (
            FlowStore,
            "load_node",
            spans.wrap("flowdb.store.load_node", FlowStore.load_node, node_bytes),
        ),
        (
            query_module,
            "merge_summaries",
            spans.wrap("flowdb.summary.merge", query_module.merge_summaries, rows),
        ),
        (np, "load", spans.wrap("numpy.load", np.load)),
    ]
    for op in ("top_k", "lookup", "cardinality"):
        patches.append(
            (FlowSummary, op, spans.wrap("flowdb.summary.answer", getattr(FlowSummary, op)))
        )
    run = spans.wrap("flowdb.query.execute", execute)
    store = FlowStore(store_root)
    with _patched(patches if spans.enabled else []):
        for spec, want in zip(specs, expected):
            got = normalize(run(store, QuerySpec.from_dict(spec)))
            if got != want:
                raise RuntimeError(f"traced pass: query {spec} answered {got!r}")
    return len(specs)


def _one_pass(spans, workload, m: dict, root: Path) -> tuple[float, list, int]:
    from checks import answer_query

    if root.exists():
        shutil.rmtree(root)
    specs = [answer_query().to_dict()] + m["query_specs"][:TRACED_QUERIES]
    expected = [m["answer_expected"]] + m["query_expected"][:TRACED_QUERIES]
    start = time.perf_counter()
    exported = [_ingest(spans, workload, v, root) for v in m["vantages"]]
    queries = _queries(spans, root, specs, expected)
    return time.perf_counter() - start, exported, queries


def traced_pass(workload, m: dict, work: Path, out_dir: Path) -> dict:
    """Run the pass untraced and traced; returns the per-layer metrics."""
    from repro.stream.records import merge_flow_records

    from checks import rotation_digest

    plain_s, _, _ = _one_pass(NoSpans(), workload, m, work / "layers-plain")
    spans = Spans()
    traced_s, exported, queries = _one_pass(spans, workload, m, work / "layers-traced")
    for v, out in zip(m["vantages"], exported):
        live = {r: merge_flow_records(recs) for r, recs in out["by_rotation"].items()}
        if rotation_digest(live) != rotation_digest(v.rotations):
            raise RuntimeError(f"traced pass: {v.name} rotations differ from offline")
    spans.save(out_dir / f"spans-{workload.name}.npz")

    calls, total, own = spans.totals()
    c = spans.counts
    pkts = c["serve.codec.decode"]
    updated = c["core.update"]
    collected = c["stream.rotation.collect"]
    records = c["serve.handoff"]
    ingested = c["flowdb.store.ingest"]
    main_cells = exported[0]["main_cells"]
    store = work / "layers-traced"
    l0_bytes = sum(p.stat().st_size for p in store.glob("vantages/*/L0/*.flow"))

    def per(x, n, scale=1.0):
        return scale * x / n if n else 0.0

    return {
        "serve.codec.decode.ns_per_pkt": (per(total["serve.codec.decode"], pkts, 1e9), "ns/pkt"),
        "serve.codec.decode.self_s": (own["serve.codec.decode"], "s"),
        "serve.codec.keys_from_halves.ns_per_pkt": (
            per(total["serve.codec.keys_from_halves"], c["serve.codec.keys_from_halves"], 1e9),
            "ns/pkt",
        ),
        "serve.ring.push.ns_per_pkt": (per(total["serve.ring.push"], c["serve.ring.push"], 1e9), "ns/pkt"),
        "serve.ring.pop.ns_per_pkt": (per(total["serve.ring.pop"], c["serve.ring.pop"], 1e9), "ns/pkt"),
        "serve.ring.pop.pkts_per_call": (per(c["serve.ring.pop"], calls["serve.ring.pop"]), "pkt/call"),
        "core.update.ns_per_pkt": (per(total["core.update"], updated, 1e9), "ns/pkt"),
        "core.update.self_s": (own["core.update"], "s"),
        "core.update.pkts_per_call": (per(updated, calls["core.update"]), "pkt/call"),
        "core.update.mem_ops_per_pkt": (per(c["core.update.mem_ops"], updated), "ops/pkt"),
        "core.update.promotions_per_kpkt": (
            per(c["core.update.promotions"], updated, 1e3), "1/kpkt"
        ),
        "stream.feed.self_s": (own["stream.feed"], "s"),
        "stream.rotation.collect.us_per_record": (
            per(total["stream.rotation.collect"], collected, 1e6), "us/record"
        ),
        "stream.rotation.collect.self_s": (own["stream.rotation.collect"], "s"),
        "stream.rotation.collect.calls": (float(calls["stream.rotation.collect"]), "calls"),
        "stream.rotation.collect.table_util": (
            per(collected, calls["stream.rotation.collect"] * main_cells), "share"
        ),
        "serve.handoff.us_per_record": (per(total["serve.handoff"], records, 1e6), "us/record"),
        "serve.handoff.bytes_per_record": (per(c["serve.handoff.bytes"], records), "B/record"),
        "stream.sinks.emit.self_s": (own["stream.sinks.emit"], "s"),
        "flowdb.sink.close.self_s": (own["flowdb.sink.close"], "s"),
        "flowdb.store.ingest.us_per_record": (
            per(total["flowdb.store.ingest"], ingested, 1e6), "us/record"
        ),
        "flowdb.store.ingest.mb_written": (l0_bytes / 2**20, "MiB"),
        "flowdb.store.merge_up.self_s": (own["flowdb.store.merge_up"], "s"),
        "flowdb.store.merge_up.nodes_written": (c["flowdb.store.merge_up"], "nodes"),
        "flowdb.store.plan.self_s": (own["flowdb.store.plan"], "s"),
        "flowdb.store.nodes.self_s": (own["flowdb.store.nodes"], "s"),
        "flowdb.store.files_opened_per_query": (per(calls["numpy.load"], queries), "files/query"),
        "flowdb.store.load_node.calls_per_query": (
            per(calls["flowdb.store.load_node"], queries), "calls/query"
        ),
        "flowdb.store.load_node.mb_per_query": (
            per(c["flowdb.store.load_node"], queries, 2.0**-20), "MiB/query"
        ),
        "flowdb.store.load_node.self_s": (own["flowdb.store.load_node"], "s"),
        "flowdb.summary.merge.rows_per_query": (
            per(c["flowdb.summary.merge"], queries), "rows/query"
        ),
        "flowdb.summary.merge.self_s": (own["flowdb.summary.merge"], "s"),
        "flowdb.summary.answer.self_s": (own["flowdb.summary.answer"], "s"),
        "flowdb.query.execute.self_s": (own["flowdb.query.execute"], "s"),
        "trace.overhead_share": ((traced_s - plain_s) / plain_s, "share"),
    }

"""Seeded inputs for the benchmark workloads, built outside any timed region.

A workload is one or more *vantage streams* (packet traces) that are
replayed as NetFlow v5 datagrams into a live daemon, collected by
HashFlow at the paper's 1 MiB sizing under interval rotation, sealed
into a flow store, and then queried.  Everything a run checks its
outputs against is computed here from the same seed:

* the offline reference rotations (``Pipeline.run`` over the same
  spec and trace — the daemon's one-worker contract says the live
  per-rotation records are bit-identical to these);
* the true per-window flow counts (for the paper's accurate-records
  share);
* a seeded query mix with its expected answers, computed from the
  offline rotations with ``FlowSummary`` / ``merge_summaries``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.export.netflow_v5 import HEADER_BYTES, RECORD_BYTES
from repro.flowdb import FlowSummary, QuerySpec, merge_summaries
from repro.serve import ServeSpec, trace_datagrams
from repro.specs import build as build_collector
from repro.stream.pipeline import Pipeline
from repro.stream.records import merge_flow_records
from repro.traces.profiles import get_profile
from repro.traces.trace import Trace

from checks import answer_query, expected_answer

#: Synthetic clock rate of the replayed streams.  A whole-millisecond
#: period keeps v5 timestamps IEEE-exact, so live and offline runs
#: rotate on identical packet boundaries.
PACKET_RATE = 1000.0

#: The paper's collector budget: 1 MiB of HashFlow tables.
MEMORY_BYTES = 1 << 20

#: Window ranges the query mix covers: the last 1, the last 8, and all
#: windows (``None``).
QUERY_RANGES = (1, 8, None)

#: Blocks of the query mix generated per run (see ``QUERY_CLASSES``);
#: the closed loop cycles through them.
QUERY_BLOCKS = 128


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name as ``--workload`` takes it.
        why: the one-sentence reason the workload exists.
        profile: trace profile (``repro.traces.profiles``).
        n_flows: flows generated per seed.
        vantages: 1 replays the trace itself; 2 splits it into the two
            switch streams of a two-switch chain (overlapping flows).
        windows: interval-rotation windows per vantage stream; the
            window length follows from the stream's packet count, so
            windows hold the same share of traffic whatever the seed.
        kernel: collector kernel tier requested.
        focus: ``"collect"`` spends the run's seconds on live passes,
            ``"query"`` spends them on the closed-loop query client.
    """

    name: str
    why: str
    profile: str
    n_flows: int
    vantages: int
    windows: int
    kernel: str
    focus: str

    def window_packets(self, packets: int) -> int:
        """Packets per window, so that a stream of ``packets`` packets
        fills exactly ``windows`` windows (the store's shape, and so the
        cost of every query, is then the same whatever the seed)."""
        return -(-packets // self.windows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="live-elephant",
            why=(
                "CAMPUS traffic (about 15 packets per flow) in 5 windows of "
                "about 500k packets on the numpy tier: per-packet layers (decode, ring, "
                "keys_from_halves, Algorithm 1) do most of the work"
            ),
            profile="campus",
            n_flows=175_000,
            vantages=1,
            windows=5,
            kernel="numpy",
            focus="collect",
        ),
        Workload(
            name="live-mice",
            why=(
                "ISP2 traffic (about 1.3 packets per flow) in 52 windows of "
                "about 10k packets on the native tier: nearly every packet becomes an "
                "exported record, so collect, hand-off, sinks and store writes "
                "dominate"
            ),
            profile="isp2",
            n_flows=400_000,
            vantages=1,
            windows=52,
            kernel="native",
            focus="collect",
        ),
        Workload(
            name="query-mix",
            why=(
                "a 2-vantage x 64-window CAIDA store queried by one "
                "closed-loop client (topk, lookup, cardinality): only the "
                "flowdb read path runs, and its set-up is the write path"
            ),
            profile="caida",
            n_flows=110_000,
            vantages=2,
            windows=64,
            kernel="numpy",
            focus="query",
        ),
    )
}


def collector_spec(kernel: str) -> dict:
    """HashFlow at 1 MiB with an explicit kernel tier (55,188 main cells)."""
    return build_collector(
        "hashflow", memory_bytes=MEMORY_BYTES, kernel=kernel
    ).spec.to_dict()


def serve_spec(
    workload: Workload, store_root: str, vantage: str, window_packets: int
) -> ServeSpec:
    """One worker, block back-pressure, interval rotation, store sink."""
    return ServeSpec(
        pipeline={
            "source": {"kind": "udp", "params": {"host": "127.0.0.1", "port": 0}},
            "collector": collector_spec(workload.kernel),
            "rotation": {
                "kind": "interval",
                "params": {"window": window_packets / PACKET_RATE},
            },
            "sinks": [
                {
                    "kind": "store",
                    "params": {"root": store_root, "vantage": vantage},
                }
            ],
            "packet_rate": PACKET_RATE,
        },
        workers=1,
        backpressure="block",
        stats_interval=3600.0,
    )


@dataclass
class Vantage:
    """One replayed stream and everything derived from it."""

    name: str
    trace: object
    datagrams: list
    #: Cumulative packets after each datagram (generator credit).
    cum_packets: np.ndarray
    #: Offline rotation index -> ``{key: packets}``.
    rotations: dict
    #: Offline rotation index -> exported ``FlowRecord`` list.
    records: dict
    #: Records exported offline (duplicates would change it).
    exported: int
    #: Exported records whose count equals the true window count.
    accurate: int
    #: True (window, flow) pairs.
    true_pairs: int
    #: Kernel tier the offline collector resolved to.
    kernel: str
    #: Packets per rotation window of this stream.
    window_packets: int

    @property
    def packets(self) -> int:
        return int(self.cum_packets[-1]) if len(self.cum_packets) else 0


def _vantage_traces(workload: Workload, seed: int) -> list[tuple[str, object]]:
    """The workload's streams.  Two vantages are the two switches of a
    two-switch chain: every flow enters at a seeded switch and leaves at
    a seeded switch, and is seen (in global packet order) by every
    switch on its path — so about half the flows are seen by both."""
    trace = get_profile(workload.profile).generate(n_flows=workload.n_flows, seed=seed)
    if workload.vantages == 1:
        return [("v0", trace)]
    rng = np.random.default_rng([seed, 0x5317])
    ends = rng.integers(0, workload.vantages, size=(2, trace.num_flows))
    low, high = ends.min(axis=0), ends.max(axis=0)
    keys = np.array(trace.flow_keys, dtype=object)
    out = []
    for switch in range(workload.vantages):
        on_path = (low <= switch) & (switch <= high)
        order = trace.order[on_path[trace.order]]
        flows, compact = np.unique(order, return_inverse=True)
        name = f"sw{switch}"
        out.append((name, Trace(keys[flows].tolist(), compact, name=name)))
    return out


def _windows_of(n: int, window_s: float) -> np.ndarray:
    """Each packet's window under interval rotation: the synthetic clock
    ``i / PACKET_RATE`` against boundaries accumulated as
    ``IntervalRotation`` accumulates them (first ``window_s``, then
    ``+= window_s``), so float rounding places every packet exactly
    where the collector did."""
    times = np.arange(n, dtype=np.float64) / PACKET_RATE
    bounds = [(times[0] // window_s + 1.0) * window_s]
    while bounds[-1] <= times[-1]:
        bounds.append(bounds[-1] + window_s)
    return np.searchsorted(np.array(bounds), times, side="right")


def _accuracy(trace, window_s: float, rotations: dict) -> tuple[int, int]:
    """(accurate exported records, true (window, flow) pairs)."""
    n = len(trace)
    flows = np.asarray(trace.order, dtype=np.int64)
    windows = _windows_of(n, window_s).astype(np.int64)
    if windows[-1] + 1 != len(rotations):
        raise RuntimeError(
            f"{windows[-1] + 1} true windows but {len(rotations)} offline rotations"
        )
    pair = windows * trace.num_flows + flows
    uniq, counts = np.unique(pair, return_counts=True)
    truth = dict(zip(uniq.tolist(), counts.tolist()))
    index = {key: i for i, key in enumerate(trace.flow_keys)}
    accurate = 0
    for rotation, records in rotations.items():
        base = int(rotation) * trace.num_flows
        for key, count in records.items():
            flow = index.get(key)
            if flow is not None and truth.get(base + flow) == count:
                accurate += 1
    return accurate, len(uniq)


def build_vantages(workload: Workload, seed: int) -> list[Vantage]:
    """Traces, datagrams, offline reference rotations and accuracy."""
    out = []
    for name, trace in _vantage_traces(workload, seed):
        window = workload.window_packets(len(trace))
        offline_spec = serve_spec(workload, "unused", name, window).pipeline_spec.with_stages(
            source={"kind": "synthetic", "params": {"profile": workload.profile, "n_flows": 1}},
            sinks=[{"kind": "archive"}],
        )
        datagrams = trace_datagrams(trace, packet_rate=PACKET_RATE)
        per = np.fromiter(
            ((len(d) - HEADER_BYTES) // RECORD_BYTES for d in datagrams),
            dtype=np.int64,
            count=len(datagrams),
        )
        pipeline = Pipeline.from_spec(offline_spec)
        if pipeline.collector.kernel != workload.kernel:
            raise RuntimeError(
                f"{workload.name}: kernel tier {workload.kernel!r} requested, "
                f"{pipeline.collector.kernel!r} resolved"
            )
        result = pipeline.run(trace=trace)
        archive = pipeline.sinks[0]
        rotations = {
            r: merge_flow_records(records) for r, records in archive.by_rotation.items()
        }
        accurate, pairs = _accuracy(trace, window / PACKET_RATE, rotations)
        out.append(
            Vantage(
                name=name,
                trace=trace,
                datagrams=datagrams,
                cum_packets=np.cumsum(per),
                rotations=rotations,
                records=archive.by_rotation,
                exported=result.exported,
                accurate=accurate,
                true_pairs=pairs,
                kernel=pipeline.collector.kernel,
                window_packets=window,
            )
        )
    return out


# ---------------------------------------------------------------------
# Query mix and expected answers
# ---------------------------------------------------------------------

def _range_summaries(vantages: list[Vantage]) -> dict:
    """Cross-vantage (max) merged ground truth per window range."""
    leaves = [
        [FlowSummary.from_counts(v.rotations[w]) for w in sorted(v.rotations)]
        for v in vantages
    ]
    per_range = {}
    for last in QUERY_RANGES:
        parts = [
            merge_summaries(windows if last is None else windows[-last:], mode="sum")
            for windows in leaves
        ]
        per_range[last] = merge_summaries(parts, mode="max")
    return per_range


#: One block of the query mix: every (operation, window range) class
#: once.  The list is made of whole blocks, each shuffled by the seed,
#: so any run of queries has the same class proportions — and a tail
#: percentile lands in the same latency class — whatever the seed.
QUERY_CLASSES = tuple(
    (op, arg, last)
    for last in QUERY_RANGES
    for op, arg in (
        ("topk", 10),
        ("topk", 100),
        ("lookup", "present"),
        ("lookup", "absent"),
        ("cardinality", None),
    )
)


def query_mix(vantages: list[Vantage], seed: int, blocks: int = QUERY_BLOCKS):
    """A seeded query list and the expected answer of each query.

    The mix: ``topk`` with k = 10 or 100, ``lookup`` of a present and
    of an absent key, and ``cardinality``, each over the last 1, 8 or
    all windows, merging vantages with ``max``.
    """
    rng = np.random.default_rng([seed, 0x51E7])
    truth = _range_summaries(vantages)
    every = truth[None]
    specs, expected = [], []
    answers: dict = {}
    classes = [
        QUERY_CLASSES[i]
        for _ in range(blocks)
        for i in rng.permutation(len(QUERY_CLASSES))
    ]
    for op, arg, last in classes:
        if op == "topk":
            spec = QuerySpec(op="topk", k=arg, last=last)
        elif op == "lookup":
            chosen = truth[last]
            if arg == "present" and len(chosen):
                i = int(rng.integers(len(chosen)))
                key = (int(chosen.hi[i]) << 64) | int(chosen.lo[i])
            else:
                while True:
                    key = (int(rng.integers(1 << 40)) << 64) | int(
                        rng.integers(1 << 63)
                    )
                    if every.lookup(key) is None:
                        break
            spec = QuerySpec(op="lookup", key=key, last=last)
        else:
            spec = QuerySpec(op="cardinality", last=last)
        specs.append(spec.to_dict())
        memo = (op, spec.k if op == "topk" else spec.key, last)
        if memo not in answers:
            answers[memo] = expected_answer(spec, truth[last])
        expected.append(answers[memo])
    return specs, expected, expected_answer(answer_query(), every)

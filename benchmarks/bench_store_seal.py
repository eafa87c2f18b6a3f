"""Flow store seal cost, and the grouping sort under it (not a paper
figure).

A live pass ends when its records are sealed into the flow store:
``FlowStoreSink.close`` runs :meth:`~repro.flowdb.store.FlowStore.ingest_rotations`
and then :meth:`~repro.flowdb.store.FlowStore.merge_up`.  Both group
rows by flow key through :func:`~repro.hashing.mixers.key_groups`:
each leaf summary is built from one rotation's export rows, and each
parent merges already-sorted child summaries.  This bench generates a
seeded ISP2 trace (about 1.3 packets per flow, so nearly every packet
becomes an exported record), runs the offline ``Pipeline`` with
interval rotation of :data:`WINDOW_PACKETS` packets into an
``archive`` sink, and then:

* times the seal, the best of 3 ``ingest_rotations`` + ``merge_up``
  runs into a fresh temporary store, as ``store_seal_s`` and exported
  records sealed per second;
* times ``key_groups`` against ``np.lexsort((lo, hi))`` on the first
  :data:`MERGE_LEAVES` leaf summaries concatenated (a level-1 merge's
  input), asserts both give the same order, and fails if the ratio
  falls below :data:`SPEEDUP_FLOOR`.

Persists ``benchmarks/results/BENCH_store_seal.json`` and merges
``store_seal_s``, ``store_seal_records_per_s`` and
``seal_sort_speedup`` into ``BENCH_headline.json`` with the
environment fields.  The trace follows ``REPRO_SCALE`` (the default
0.1 gives perfbench's live-mice shape: 400,000 flows in 52 windows),
but never shrinks below :data:`MIN_FLOWS`, so the merge input keeps
about 77k rows and the ratio stays stable at CI's 0.02.
"""

from __future__ import annotations

import json
import tempfile
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, environment_fields, update_headline
from repro.flowdb import FlowStore, FlowSummary
from repro.hashing.mixers import key_groups
from repro.specs import build, resolve_scale
from repro.stream.pipeline import Pipeline
from repro.traces.profiles import ISP2

JSON_PATH = RESULTS_DIR / "BENCH_store_seal.json"

#: Packets per rotation window (perfbench's live-mice windows hold
#: about 10k packets each).
WINDOW_PACKETS = 10_000

#: Synthetic clock rate; a whole-millisecond period keeps window
#: boundaries exact.
PACKET_RATE = 1000.0

#: Flows generated at ``REPRO_SCALE=1``, and the floor at any scale:
#: 80,000 ISP2 flows still fill 11 windows.
FLOWS_AT_FULL_SCALE = 4_000_000
MIN_FLOWS = 80_000

#: Leaf summaries concatenated for the sort comparison (the store's
#: default fan-out).
MERGE_LEAVES = 8

#: Minimum ``np.lexsort`` / ``key_groups`` time ratio on the merge
#: input.  Measured at 5-6x on 25k-77k rows on a 2-vCPU VM; the floor
#: only catches a return to a full re-sort.
SPEEDUP_FLOOR = 2.0


def _best_of(n_rounds: int, run) -> float:
    best = float("inf")
    for _ in range(n_rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _rotations(n_flows: int) -> dict:
    """Rotation index -> exported RecordBatch of the offline pipeline
    (HashFlow at the paper's 1 MiB, as perfbench collects)."""
    trace = ISP2.generate(n_flows=n_flows, seed=7)
    pipeline = Pipeline(
        source={"kind": "synthetic", "params": {"profile": "isp2", "n_flows": 1}},
        collector=build("hashflow", memory_bytes=1 << 20).spec.to_dict(),
        rotation={"kind": "interval", "params": {"window": WINDOW_PACKETS / PACKET_RATE}},
        sinks=[{"kind": "archive"}],
        packet_rate=PACKET_RATE,
    )
    pipeline.run(trace=trace)
    return pipeline.sinks[0].by_rotation


def test_store_seal_recorded():
    """Record the seal time and the grouping sort's gain over lexsort."""
    scale = resolve_scale(None)
    n_flows = max(MIN_FLOWS, int(round(FLOWS_AT_FULL_SCALE * scale)))
    by_rotation = _rotations(n_flows)
    records = sum(len(batch) for batch in by_rotation.values())
    assert len(by_rotation) >= MERGE_LEAVES

    nodes = {}

    def seal() -> None:
        with tempfile.TemporaryDirectory() as root:
            store = FlowStore(root)
            store.ingest_rotations("v0", by_rotation)
            nodes["parents"] = len(store.merge_up("v0"))

    seal_s = _best_of(3, seal)

    leaves = [
        FlowSummary.from_records(by_rotation[r]) for r in sorted(by_rotation)
    ][:MERGE_LEAVES]
    lo = np.concatenate([leaf.lo for leaf in leaves])
    hi = np.concatenate([leaf.hi for leaf in leaves])
    order, _ = key_groups(lo, hi)
    assert np.array_equal(order, np.lexsort((lo, hi)))
    lexsort_s = _best_of(7, lambda: np.lexsort((lo, hi)))
    key_groups_s = _best_of(7, lambda: key_groups(lo, hi))
    speedup = lexsort_s / key_groups_s

    record = {
        "experiment": "store_seal",
        "profile": "isp2",
        "n_flows": n_flows,
        "scale": scale,
        "windows": len(by_rotation),
        "records": records,
        "parents_written": nodes["parents"],
        "store_seal_s": round(seal_s, 4),
        "store_seal_records_per_s": round(records / seal_s),
        "merge_leaves": MERGE_LEAVES,
        "merge_rows": len(lo),
        "lexsort_ms": round(lexsort_s * 1e3, 3),
        "key_groups_ms": round(key_groups_s * 1e3, 3),
        "seal_sort_speedup": round(speedup, 2),
        **environment_fields(),
    }
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\nstore seal: {records} records in {len(by_rotation)} windows sealed "
        f"in {seal_s:.3f}s ({records / seal_s:,.0f} records/s); merge of "
        f"{len(lo)} rows: lexsort {lexsort_s * 1e3:.2f} ms, key_groups "
        f"{key_groups_s * 1e3:.2f} ms ({speedup:.2f}x)"
    )
    update_headline(
        store_seal_s=record["store_seal_s"],
        store_seal_records_per_s=record["store_seal_records_per_s"],
        seal_sort_speedup=record["seal_sort_speedup"],
        **environment_fields(),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"key_groups is only {speedup:.2f}x np.lexsort on {len(lo)} rows of "
        f"{MERGE_LEAVES} sorted summaries (floor {SPEEDUP_FLOOR}x): the "
        "merge re-sorts its sorted runs again"
    )

#!/usr/bin/env python3
"""Long-running monitoring with rotation policies and adaptive HashFlow.

A fixed-size HashFlow saturates on an unbounded stream; operational
NetFlow therefore measures in epochs.  This example contrasts three
deployments over the same long stream:

1. a single HashFlow left running (saturates),
2. a `repro.stream` pipeline with count rotation — the tables are
   exported and reset every epoch, and each epoch's records are checked
   against a fresh HashFlow fed only that epoch
   (:func:`~repro.traces.replay.split_by_packets`),
3. the same pipeline with RFC 3954 timeout rotation (flow-granular expiry),

and finishes with :class:`AdaptiveHashFlow` reacting to a mice-churn
regime change (the paper's "adaptive to traffic variation" future work).

Run:  python examples/epoch_monitoring.py
"""

from __future__ import annotations

from repro.core.adaptive import AdaptiveHashFlow
from repro.core.hashflow import HashFlow
from repro.stream import Pipeline, merge_flow_records
from repro.traces import CAMPUS, merge_traces, split_by_packets

N_FLOWS = 12_000
CELLS = 2_048
EPOCH_PACKETS = 20_000


def main() -> None:
    # A "long" stream: three back-to-back campus measurement intervals.
    parts = [CAMPUS.generate(n_flows=N_FLOWS // 3, seed=s) for s in (1, 2, 3)]
    stream = merge_traces(parts, seed=9, name="long")
    truth = stream.true_sizes()
    print(f"stream: {stream.num_flows} flows, {len(stream)} packets; "
          f"collectors have {CELLS} main cells\n")

    # 1. One HashFlow, never reset.
    single = HashFlow(main_cells=CELLS, seed=4)
    single.process_all(stream.keys())
    print(f"single table:      {len(single.records()):>6d} flows reported "
          f"(utilization {single.utilization():.2f} — saturated)")

    # 2. Count rotation: every epoch's records are exported to the sinks
    #    and the tables reset, so each epoch starts from empty tables.
    pipeline = Pipeline(
        source={"kind": "synthetic",  # placeholder; we feed `stream` below
                "params": {"profile": "campus", "n_flows": 16}},
        collector={"kind": "hashflow", "params": {"main_cells": CELLS, "seed": 4}},
        rotation={"kind": "count", "params": {"epoch_packets": EPOCH_PACKETS}},
        sinks=[{"kind": "archive"}, {"kind": "cardinality"}],
    )
    result = pipeline.run(trace=stream)
    exact = sum(1 for k, v in result.records.items() if truth.get(k) == v)
    archived = {
        index: merge_flow_records(records)
        for index, records in pipeline.sinks[0].by_rotation.items()
    }
    fresh = {}
    for index, epoch in enumerate(split_by_packets(stream, EPOCH_PACKETS)):
        table = HashFlow(main_cells=CELLS, seed=4)
        table.process_all(epoch.key_batch())
        fresh[index] = table.records()
    match = "match" if archived == fresh else "MISMATCH"
    print(f"count rotation:    {len(result.records):>6d} flows reported over "
          f"{len(archived)} epochs ({exact} with exact counts; "
          f"fresh tables per epoch: {match})")

    # 3. Timeout rotation over the same stream: flow-granular expiry
    #    instead of table-wide epochs (packets are clocked at the
    #    pipeline's synthetic packet rate, as the stream is untimestamped).
    timed = Pipeline(
        source=pipeline.source,
        collector={"kind": "hashflow", "params": {"main_cells": CELLS, "seed": 4}},
        rotation={"kind": "timeout",
                  "params": {"inactive_timeout": 0.2, "active_timeout": 30.0}},
        sinks=[{"kind": "archive"}],
    )
    expiry = timed.run(trace=stream)
    print(f"timeout pipeline:  {len(expiry.records):>6d} flows reported, "
          f"{expiry.rotations} expiry sweeps")

    # 4. Adaptive promotion under a regime change: steady traffic, then
    #    a burst of pure mice churn.
    adaptive = AdaptiveHashFlow(
        main_cells=CELLS, ancillary_cells=CELLS, window=2048, seed=4
    )
    adaptive.process_all(stream.keys())
    margin_steady = adaptive.margin
    adaptive.process_all(range(10_000_000, 10_000_000 + 60_000))  # mice storm
    print(f"\nAdaptiveHashFlow:  promotion margin {margin_steady} during "
          f"steady traffic -> {adaptive.margin} under mice churn "
          f"(promotes earlier to keep elephants flowing into the main table)")


if __name__ == "__main__":
    main()

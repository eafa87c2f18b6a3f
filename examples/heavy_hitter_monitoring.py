#!/usr/bin/env python3
"""Heavy-hitter monitoring: find the top talkers on a congested link.

Scenario: a campus uplink (skewed traffic, a few elephants carry most
bytes) must be monitored with a small on-switch memory.  We compare four
sketches — HashFlow, HashPipe, ElasticSketch, FlowRadar — plus the
classic Space-Saving summary, all under the same memory budget, on:

* detection quality (precision / recall / F1) across thresholds, and
* size-estimation accuracy for the detected heavy hitters.

This is the paper's Figs. 9/10 scenario as an application script.

Run:  python examples/heavy_hitter_monitoring.py
"""

from __future__ import annotations

from repro.analysis.heavy_hitters import evaluate_heavy_hitters
from repro.flow.key import FlowKey
from repro.sketches.spacesaving import SpaceSaving
from repro.specs import build_evaluated
from repro.traces import CAMPUS

MEMORY_BYTES = 128 * 1024
N_FLOWS = 20_000
THRESHOLDS = (25, 50, 100, 200)


def main() -> None:
    trace = CAMPUS.generate(n_flows=N_FLOWS, seed=7)
    truth = trace.true_sizes()
    keys = trace.key_list()
    print(f"workload: {trace.num_flows} flows, {len(keys)} packets "
          f"(campus profile: top 7.7% of flows carry most packets)\n")

    collectors = build_evaluated(MEMORY_BYTES, seed=1)
    # Space-Saving gets the same memory: each record costs 168 bits.
    collectors["SpaceSaving"] = SpaceSaving(capacity=MEMORY_BYTES * 8 // 168)

    for collector in collectors.values():
        collector.process_all(keys)

    header = f"{'threshold':>9s} {'algorithm':>14s} {'P':>6s} {'R':>6s} {'F1':>6s} {'ARE':>7s}"
    print(header)
    print("-" * len(header))
    for threshold in THRESHOLDS:
        for name, collector in collectors.items():
            r = evaluate_heavy_hitters(collector, truth, threshold)
            print(
                f"{threshold:>9d} {name:>14s} {r.precision:>6.3f} "
                f"{r.recall:>6.3f} {r.f1:>6.3f} {r.are:>7.3f}"
            )
        print()

    # Show the actual top talkers HashFlow found.
    hf = collectors["HashFlow"]
    top = sorted(hf.heavy_hitters(100).items(), key=lambda kv: -kv[1])[:5]
    print("top talkers per HashFlow (>100 pkts):")
    for key, est in top:
        print(f"  {FlowKey.unpack(key)}  est={est}  true={truth.get(key, 0)}")


if __name__ == "__main__":
    main()

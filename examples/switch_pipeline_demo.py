#!/usr/bin/env python3
"""Switch pipeline demo: run HashFlow inside the P4-style switch model.

Builds the bmv2-shaped program the paper evaluates — parser, ACL,
measurement stage, L3 forwarding — loads each algorithm, replays the
same trace, and reports the Fig. 11 quantities: modelled throughput,
hash operations per packet, and memory accesses per packet.  Finishes
with the register-level rendering of HashFlow's main table to show the
update rule maps onto plain dataplane registers.

Run:  python examples/switch_pipeline_demo.py
"""

from __future__ import annotations

from repro.specs import build_evaluated
from repro.switchsim import (
    AclStage,
    CostModel,
    RegisterHashFlowStage,
    measurement_switch,
)
from repro.traces import ISP1

N_FLOWS = 10_000


def main() -> None:
    trace = ISP1.generate(n_flows=N_FLOWS, seed=9)
    print(f"replaying {len(trace)} packets of {trace.num_flows} flows "
          f"through a parser -> ACL -> measurement -> L3 pipeline\n")

    cost_model = CostModel()
    acl = AclStage(blocked_dst_ports={23})  # drop telnet, because 2009

    print(f"{'algorithm':>14s} {'Kpps':>7s} {'hashes/pkt':>11s} "
          f"{'accesses/pkt':>13s} {'records':>8s}")
    for name, collector in build_evaluated(128 * 1024, seed=2).items():
        switch = measurement_switch(collector, cost_model, acl=acl)
        report = switch.run_trace(trace)
        print(f"{name:>14s} {report.throughput_kpps:>7.2f} "
              f"{report.hashes_per_packet:>11.2f} "
              f"{report.accesses_per_packet:>13.2f} "
              f"{len(collector.records()):>8d}")

    print(f"\n(unloaded bmv2 baseline: "
          f"{cost_model.throughput_kpps(0, 0):.1f} Kpps)")

    # Register-level HashFlow main table: Algorithm 1's probe loop over
    # three register arrays (key_hi / key_lo / count) — the shape a P4
    # program gives it.
    stage = RegisterHashFlowStage(n_cells=4096, depth=3, seed=2)
    absorbed = sum(1 for key in trace.keys() if stage.update(key))
    records = stage.records()
    pp = stage.meter.per_packet()
    print(f"\nregister-level main table: {len(records)} records, "
          f"{absorbed}/{len(trace)} packets absorbed in-table, "
          f"{pp['accesses']:.2f} register accesses/pkt")


if __name__ == "__main__":
    main()

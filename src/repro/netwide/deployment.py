"""Network-wide measurement deployment.

Places a flow collector on every switch of a topology, replays a trace
through the routed per-switch streams, and merges the per-switch record
sets into a network-wide view.  Demonstrates the coverage gain of
network-wide collection: a flow missed by one overloaded switch is
often caught by another on its path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.netwide.merge import merge_max
from repro.netwide.topology import FlowRouter
from repro.sketches.base import FlowCollector
from repro.specs import CollectorSpec, as_spec, build
from repro.traces.trace import Trace


@dataclass
class DeploymentReport:
    """Result of one network-wide run.

    Attributes:
        per_switch_records: each switch's reported records.
        merged_records: the network-wide merged record set.
        per_switch_packets: packets each switch processed.
    """

    per_switch_records: dict[str, dict[int, int]]
    merged_records: dict[int, int]
    per_switch_packets: dict[str, int]

    def coverage(self, true_flows: set[int]) -> float:
        """Network-wide FSC of the merged record set."""
        if not true_flows:
            return 1.0
        return len(true_flows.intersection(self.merged_records)) / len(true_flows)


class NetworkDeployment:
    """Collectors deployed across a routed topology.

    Args:
        router: flow router over the topology.
        collector: what every switch runs — a
            :class:`~repro.specs.CollectorSpec` (or spec dict / kind
            name / registered collector class / prototype collector),
            from which each switch's instance is built with a seed
            derived deterministically from the switch *name* (stable
            across processes, unlike ``hash(name)``).
    """

    def __init__(
        self,
        router: FlowRouter,
        collector: CollectorSpec | FlowCollector | Mapping | str | type[FlowCollector],
    ):
        self.router = router
        self.spec = as_spec(collector)
        self.collectors: dict[str, FlowCollector] = {
            name: build(self.spec.reseed(name)) for name in router.graph.nodes
        }

    def run(self, trace: Trace) -> DeploymentReport:
        """Replay a trace network-wide and merge the records."""
        streams = self.router.split_trace(trace)
        per_switch_packets: dict[str, int] = {}
        for switch, keys in streams.items():
            per_switch_packets[switch] = self.collectors[switch].process_all(keys)
        per_switch_records = {
            switch: collector.records()
            for switch, collector in self.collectors.items()
        }
        merged = merge_max(per_switch_records.values())
        return DeploymentReport(
            per_switch_records=per_switch_records,
            merged_records=merged,
            per_switch_packets=per_switch_packets,
        )

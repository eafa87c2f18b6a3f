"""Network-wide measurement (extension of the paper's future work).

Per-switch deployments over a routed topology, the record merges that
combine their exports, and the hash-sharded collector whose shards the
serve workers split between them.
"""

from repro.netwide.deployment import DeploymentReport, NetworkDeployment
from repro.netwide.merge import merge_max, merge_sum
from repro.netwide.sharding import ShardedCollector
from repro.netwide.topology import FlowRouter, fat_tree_core, linear_chain

__all__ = [
    "DeploymentReport",
    "FlowRouter",
    "NetworkDeployment",
    "ShardedCollector",
    "fat_tree_core",
    "linear_chain",
    "merge_max",
    "merge_sum",
]

"""Network topologies for network-wide measurement (paper future work).

Builds small switch topologies (networkx graphs) and routes flows over
them with shortest paths, producing the per-switch packet streams a
network-wide deployment observes.  Section V of the paper lists
"network wide measurement" as planned work; this package supplies the
substrate for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.traces.trace import Trace

if TYPE_CHECKING:
    import networkx as nx

# networkx is imported only where a graph is built or routed: every
# collector build imports this package through the ``sharded``
# registration, and loading networkx there would slow every serve
# worker's start.


def fat_tree_core(k_edge: int = 4, k_core: int = 2) -> nx.Graph:
    """A two-layer leaf/spine style topology.

    Args:
        k_edge: number of edge switches (each homes a share of hosts).
        k_core: number of core switches (each connects to every edge).

    Returns:
        A networkx graph whose nodes are switch names (``edge0``,
        ``core1``, ...).
    """
    import networkx as nx

    if k_edge < 1 or k_core < 1:
        raise ValueError("k_edge and k_core must be >= 1")
    graph = nx.Graph()
    edges = [f"edge{i}" for i in range(k_edge)]
    cores = [f"core{i}" for i in range(k_core)]
    graph.add_nodes_from(edges, role="edge")
    graph.add_nodes_from(cores, role="core")
    for e in edges:
        for c in cores:
            graph.add_edge(e, c)
    return graph


def linear_chain(length: int = 3) -> nx.Graph:
    """A chain of switches (``sw0 - sw1 - ... - sw{length-1}``)."""
    import networkx as nx

    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    graph = nx.path_graph(length)
    return nx.relabel_nodes(graph, {i: f"sw{i}" for i in range(length)})


class FlowRouter:
    """Assigns each flow an ingress/egress switch pair and a path.

    Flows are pinned to edge switches by hashing their keys (stable
    across runs); paths are networkx shortest paths.

    Args:
        graph: switch topology.
        seed: salt for the ingress/egress assignment.
    """

    def __init__(self, graph: nx.Graph, seed: int = 0):
        self.graph = graph
        self.seed = seed
        self._edge_switches = sorted(
            n for n, data in graph.nodes(data=True) if data.get("role", "edge") == "edge"
        )
        if not self._edge_switches:
            self._edge_switches = sorted(graph.nodes)
        self._path_cache: dict[tuple[str, str], list[str]] = {}

    def endpoints(self, key: int) -> tuple[str, str]:
        """Deterministic (ingress, egress) switches for a flow."""
        n = len(self._edge_switches)
        rng = np.random.default_rng((key ^ self.seed) & 0xFFFFFFFF)
        src = self._edge_switches[int(rng.integers(0, n))]
        dst = self._edge_switches[int(rng.integers(0, n))]
        return src, dst

    def path(self, key: int) -> list[str]:
        """The switch path a flow's packets traverse."""
        src, dst = self.endpoints(key)
        if src == dst:
            return [src]
        cached = self._path_cache.get((src, dst))
        if cached is None:
            import networkx as nx

            cached = nx.shortest_path(self.graph, src, dst)
            self._path_cache[(src, dst)] = cached
        return cached

    def split_trace(self, trace: Trace) -> dict[str, list[int]]:
        """Per-switch packet key streams for a trace.

        Every packet of a flow appears at every switch on the flow's
        path, in global arrival order (the view each switch's collector
        sees).
        """
        flow_paths = [self.path(key) for key in trace.flow_keys]
        streams: dict[str, list[int]] = {n: [] for n in self.graph.nodes}
        flow_keys = trace.flow_keys
        for idx in trace.order:
            key = flow_keys[idx]
            for switch in flow_paths[idx]:
                streams[switch].append(key)
        return streams

    def vantage_stream(self, trace: Trace) -> list[int]:
        """The multi-vantage observation stream of a routed trace.

        Concatenates the per-switch streams of :meth:`split_trace` in
        sorted switch order: a flow traversing three switches
        contributes its packets three times — the aggregate a
        network-wide collection point ingests (the
        :class:`~repro.stream.sources.NetwideSource` feed).
        """
        streams = self.split_trace(trace)
        merged: list[int] = []
        for switch in sorted(streams):
            merged.extend(streams[switch])
        return merged

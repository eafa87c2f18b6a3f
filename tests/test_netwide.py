"""Tests for repro.netwide: topology, routing, deployment, merging."""

from __future__ import annotations

import pytest

from repro.core.hashflow import HashFlow
from repro.netwide.deployment import NetworkDeployment
from repro.netwide.merge import merge_max, merge_sum
from repro.netwide.topology import FlowRouter, fat_tree_core, linear_chain


class TestTopologies:
    def test_fat_tree_shape(self):
        g = fat_tree_core(k_edge=4, k_core=2)
        assert len(g.nodes) == 6
        assert len(g.edges) == 8  # every edge connects to every core

    def test_linear_chain(self):
        g = linear_chain(3)
        assert set(g.nodes) == {"sw0", "sw1", "sw2"}
        assert ("sw0", "sw1") in g.edges

    def test_validation(self):
        with pytest.raises(ValueError):
            fat_tree_core(k_edge=0)
        with pytest.raises(ValueError):
            linear_chain(0)


class TestFlowRouter:
    def test_endpoints_deterministic(self):
        router = FlowRouter(fat_tree_core(), seed=1)
        assert router.endpoints(12345) == router.endpoints(12345)

    def test_endpoints_are_edge_switches(self):
        router = FlowRouter(fat_tree_core(4, 2), seed=1)
        for key in range(50):
            src, dst = router.endpoints(key)
            assert src.startswith("edge")
            assert dst.startswith("edge")

    def test_path_connects_endpoints(self):
        router = FlowRouter(fat_tree_core(4, 2), seed=1)
        for key in range(20):
            path = router.path(key)
            src, dst = router.endpoints(key)
            assert path[0] == src
            assert path[-1] == dst

    def test_split_trace_covers_paths(self, tiny_trace):
        router = FlowRouter(linear_chain(2), seed=0)
        streams = router.split_trace(tiny_trace)
        # Every packet appears at its flow's ingress switch at least.
        total_across = sum(len(keys) for keys in streams.values())
        assert total_across >= len(tiny_trace)

    def test_split_preserves_per_switch_order(self, small_trace):
        router = FlowRouter(fat_tree_core(3, 2), seed=2)
        streams = router.split_trace(small_trace)
        full = small_trace.key_list()
        for switch, keys in streams.items():
            if not keys:
                continue
            it = iter(full)
            assert all(any(k == f for f in it) for k in keys)  # subsequence


class TestMerging:
    def test_merge_max(self):
        merged = merge_max([{1: 5, 2: 3}, {1: 7, 3: 1}])
        assert merged == {1: 7, 2: 3, 3: 1}

    def test_merge_sum(self):
        merged = merge_sum([{1: 5}, {1: 7, 2: 1}])
        assert merged == {1: 12, 2: 1}

    def test_empty(self):
        assert merge_max([]) == {}
        assert merge_sum([{}]) == {}


class TestNetworkDeployment:
    def test_full_coverage_with_roomy_collectors(self, small_trace):
        router = FlowRouter(fat_tree_core(3, 2), seed=3)
        deployment = NetworkDeployment(
            router, HashFlow(main_cells=4 * small_trace.num_flows)
        )
        report = deployment.run(small_trace)
        coverage = report.coverage(set(small_trace.true_sizes()))
        assert coverage > 0.99

    def test_merged_beats_single_switch_under_pressure(self, small_trace):
        """The network-wide payoff: merging records from several small
        switches recovers flows any single switch dropped."""
        cells = small_trace.num_flows // 4
        router = FlowRouter(fat_tree_core(4, 2), seed=4)
        deployment = NetworkDeployment(router, HashFlow(main_cells=cells))
        report = deployment.run(small_trace)
        truth = set(small_trace.true_sizes())
        merged_cov = report.coverage(truth)
        best_single = max(
            len(truth.intersection(records)) / len(truth)
            for records in report.per_switch_records.values()
        )
        assert merged_cov >= best_single

    def test_merged_counts_not_above_truth(self, small_trace):
        """HashFlow never overcounts a flow, so the max-merge cannot
        exceed the true size (up to promotion edge cases)."""
        router = FlowRouter(linear_chain(3), seed=5)
        deployment = NetworkDeployment(
            router, HashFlow(main_cells=2 * small_trace.num_flows)
        )
        report = deployment.run(small_trace)
        truth = small_trace.true_sizes()
        exact = sum(
            1 for k, v in report.merged_records.items() if truth.get(k) == v
        )
        assert exact / len(report.merged_records) > 0.95

    def test_per_switch_packets_reported(self, tiny_trace):
        router = FlowRouter(linear_chain(2), seed=0)
        deployment = NetworkDeployment(router, HashFlow(main_cells=64))
        report = deployment.run(tiny_trace)
        assert sum(report.per_switch_packets.values()) >= len(tiny_trace)

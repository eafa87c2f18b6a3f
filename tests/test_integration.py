"""Cross-module integration tests: the paper's claims end to end.

These tie traces, collectors, metrics and the model together at reduced
scale and assert the *relationships* the paper reports (who wins, where
the cliffs are), not absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.analysis.heavy_hitters import evaluate_heavy_hitters
from repro.analysis.metrics import (
    average_relative_error,
    flow_set_coverage,
    relative_error,
)
from repro.analysis.model import predicted_records
from repro.specs import build, build_evaluated
from repro.experiments.runner import Workload, make_workload
from repro.traces.profiles import CAIDA, CAMPUS

MEMORY = 24 * 1024  # 24 KB -> ~1.3K HashFlow main cells, everything scaled


@pytest.fixture(scope="module")
def heavy_workload() -> Workload:
    """~4.4x overload relative to HashFlow's main table (paper's 250K/55K)."""
    hf = build("hashflow", memory_bytes=MEMORY)
    n_flows = int(4.4 * hf.main.n_cells)
    return make_workload(CAIDA, n_flows, seed=3)


@pytest.fixture(scope="module")
def fed_collectors(heavy_workload):
    collectors = build_evaluated(MEMORY, seed=0)
    for collector in collectors.values():
        heavy_workload.feed(collector)
    return collectors


class TestFlowRecordReport:
    def test_hashflow_fills_its_main_table(self, fed_collectors, heavy_workload):
        """Paper: 'nearly making a full use of its main table' at 250K."""
        hf = fed_collectors["HashFlow"]
        assert hf.utilization() > 0.95

    def test_hashflow_fsc_beats_competitors_under_load(
        self, fed_collectors, heavy_workload
    ):
        fsc = {
            name: flow_set_coverage(c.records(), heavy_workload.true_sizes)
            for name, c in fed_collectors.items()
        }
        assert fsc["HashFlow"] >= fsc["ElasticSketch"]
        assert fsc["HashFlow"] >= fsc["FlowRadar"]
        assert fsc["HashFlow"] >= fsc["HashPipe"] * 0.95

    def test_model_predicts_record_count(self, fed_collectors, heavy_workload):
        """Section III-B's 'concrete performance guarantee'."""
        hf = fed_collectors["HashFlow"]
        predicted = predicted_records(
            heavy_workload.num_flows, hf.main.n_cells, 3, 0.7
        )
        assert len(hf.records()) == pytest.approx(predicted, rel=0.05)

    def test_hashflow_records_are_nearly_all_exact(
        self, fed_collectors, heavy_workload
    ):
        """'Since each record is accurate (neglecting the minor chance
        that a promoted record has an inaccurate count)' — most reported
        records carry the exact packet count."""
        hf = fed_collectors["HashFlow"]
        truth = heavy_workload.true_sizes
        records = hf.records()
        exact = sum(1 for k, v in records.items() if truth[k] == v)
        assert exact / len(records) > 0.8


class TestFlowRadarCliff:
    def test_decode_collapses_past_capacity(self):
        fr = build("flowradar", memory_bytes=MEMORY)
        threshold_flows = int(0.7 * fr.counting_cells)
        light = make_workload(CAIDA, threshold_flows, seed=1)
        light.feed(fr)
        light_fsc = flow_set_coverage(fr.records(), light.true_sizes)
        assert light_fsc > 0.95

        fr2 = build("flowradar", memory_bytes=MEMORY)
        heavy = make_workload(CAIDA, 3 * fr.counting_cells, seed=1)
        heavy.feed(fr2)
        heavy_fsc = flow_set_coverage(fr2.records(), heavy.true_sizes)
        assert heavy_fsc < 0.2

    def test_flowradar_wins_when_underloaded(self):
        """Paper Fig. 6: 'for a very small number of flows, FlowRadar has
        the highest coverage'."""
        collectors = build_evaluated(MEMORY, seed=2)
        hf_cells = collectors["HashFlow"].main.n_cells
        tiny = make_workload(CAIDA, int(0.5 * hf_cells), seed=2)
        fsc = {}
        for name, c in collectors.items():
            tiny.feed(c)
            fsc[name] = flow_set_coverage(c.records(), tiny.true_sizes)
        assert fsc["FlowRadar"] >= max(v for k, v in fsc.items() if k != "FlowRadar")


class TestSizeEstimation:
    def test_hashflow_lowest_are_under_moderate_load(self):
        """Paper Fig. 8 regime: ~1.8x main-table overload."""
        collectors = build_evaluated(MEMORY, seed=4)
        n = int(1.8 * collectors["HashFlow"].main.n_cells)
        workload = make_workload(CAIDA, n, seed=4)
        are = {}
        for name, c in collectors.items():
            workload.feed(c)
            are[name] = average_relative_error(c.query, workload.true_sizes)
        assert are["HashFlow"] == min(are.values())

    def test_exact_for_resident_elephants(self, fed_collectors, heavy_workload):
        hf = fed_collectors["HashFlow"]
        truth = heavy_workload.true_sizes
        elephants = {k: v for k, v in truth.items() if v > 100}
        resident = {k: v for k, v in elephants.items() if hf.main.query(k) > 0}
        if resident:
            errors = [abs(hf.query(k) / v - 1.0) for k, v in resident.items()]
            assert sum(errors) / len(errors) < 0.15


class TestCardinality:
    def test_hashflow_elastic_flowradar_all_reasonable(
        self, fed_collectors, heavy_workload
    ):
        n = heavy_workload.num_flows
        for name in ("HashFlow", "ElasticSketch", "FlowRadar"):
            re = relative_error(fed_collectors[name].estimate_cardinality(), n)
            assert re < 0.35, f"{name} RE={re}"

    def test_hashpipe_underestimates_badly(self, fed_collectors, heavy_workload):
        """Paper Fig. 7: 'HashPipe always performs badly'."""
        n = heavy_workload.num_flows
        hp_re = relative_error(
            fed_collectors["HashPipe"].estimate_cardinality(), n
        )
        hf_re = relative_error(
            fed_collectors["HashFlow"].estimate_cardinality(), n
        )
        assert hp_re > 0.5
        assert hp_re > hf_re


class TestHeavyHitterDetection:
    def test_hashflow_near_perfect_f1(self, fed_collectors, heavy_workload):
        """Paper Fig. 9: HashFlow reaches F1 ~1 for reasonable thresholds."""
        result = evaluate_heavy_hitters(
            fed_collectors["HashFlow"], heavy_workload.true_sizes, threshold=100
        )
        assert result.f1 > 0.95
        assert result.are < 0.1

    def test_hashflow_beats_elastic_on_hh(self, fed_collectors, heavy_workload):
        ours = evaluate_heavy_hitters(
            fed_collectors["HashFlow"], heavy_workload.true_sizes, threshold=100
        )
        elastic = evaluate_heavy_hitters(
            fed_collectors["ElasticSketch"], heavy_workload.true_sizes, threshold=100
        )
        assert ours.f1 >= elastic.f1


class TestThroughputOrdering:
    def test_flowradar_most_expensive(self, fed_collectors):
        per_packet = {
            name: c.meter.per_packet() for name, c in fed_collectors.items()
        }
        assert per_packet["FlowRadar"]["hashes"] == pytest.approx(7.0, abs=0.01)
        for name in ("HashFlow", "HashPipe", "ElasticSketch"):
            assert per_packet[name]["hashes"] < per_packet["FlowRadar"]["hashes"]
            assert (
                per_packet[name]["accesses"] < per_packet["FlowRadar"]["accesses"]
            )

    def test_hashflow_worst_case_four_hashes(self, fed_collectors):
        """Paper §IV-A: HashFlow computes at most 4 hash results... plus
        the digest derived from the same probe set — bounded per packet."""
        pp = fed_collectors["HashFlow"].meter.per_packet()
        assert pp["hashes"] <= 5.0


class TestNetworkWideExtension:
    def test_campus_trace_network_wide(self):
        from repro.core.hashflow import HashFlow
        from repro.netwide.deployment import NetworkDeployment
        from repro.netwide.topology import FlowRouter, fat_tree_core

        workload = make_workload(CAMPUS, 1200, seed=5)
        router = FlowRouter(fat_tree_core(4, 2), seed=5)
        deployment = NetworkDeployment(router, HashFlow(main_cells=600))
        report = deployment.run(workload.trace)
        assert report.coverage(set(workload.true_sizes)) > 0.6

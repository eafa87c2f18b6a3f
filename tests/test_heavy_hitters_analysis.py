"""Tests for repro.analysis.heavy_hitters."""

from __future__ import annotations

import math

import pytest

from repro.analysis.heavy_hitters import evaluate_heavy_hitters, threshold_sweep
from repro.sketches.exact import ExactCollector


def exact_for(sizes: dict[int, int]) -> ExactCollector:
    c = ExactCollector()
    for key, count in sizes.items():
        for _ in range(count):
            c.process(key)
    return c


class TestEvaluateHeavyHitters:
    def test_exact_collector_perfect(self):
        sizes = {1: 100, 2: 50, 3: 5, 4: 1}
        c = exact_for(sizes)
        result = evaluate_heavy_hitters(c, sizes, threshold=10)
        assert result.f1 == 1.0
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.are == 0.0
        assert result.actual == 2
        assert result.correct == 2

    def test_no_heavy_hitters(self):
        sizes = {1: 2, 2: 3}
        c = exact_for(sizes)
        result = evaluate_heavy_hitters(c, sizes, threshold=10)
        assert result.actual == 0
        assert result.reported == 0
        assert result.f1 == 1.0  # vacuous perfection
        assert math.isnan(result.are)

    def test_imperfect_detector(self):
        sizes = {1: 100, 2: 100}

        class HalfDetector(ExactCollector):
            def heavy_hitters(self, threshold):
                return {1: 120}  # one correct report, overestimated

        c = HalfDetector()
        for key, count in sizes.items():
            for _ in range(count):
                c.process(key)
        result = evaluate_heavy_hitters(c, sizes, threshold=10)
        assert result.precision == 1.0
        assert result.recall == 0.5
        assert result.are == pytest.approx(0.2)

    def test_threshold_sweep_shapes(self):
        sizes = {i: i for i in range(1, 101)}
        c = exact_for(sizes)
        results = threshold_sweep(c, sizes, [10, 50, 90])
        assert [r.threshold for r in results] == [10, 50, 90]
        assert [r.actual for r in results] == [90, 50, 10]
        assert all(r.f1 == 1.0 for r in results)

    def test_threshold_sweep_empty_and_unsorted(self):
        sizes = {i: i for i in range(1, 51)}
        c = exact_for(sizes)
        assert threshold_sweep(c, sizes, []) == []
        unsorted = threshold_sweep(c, sizes, [40, 5, 20])
        assert [r.threshold for r in unsorted] == [40, 5, 20]
        assert [r.actual for r in unsorted] == [10, 45, 30]


class TestThresholdSweepMatchesPerThresholdEvaluation:
    """threshold_sweep extracts a collector's estimates once (at the
    lowest threshold) and re-filters per sweep point; this is exact
    only while every ``heavy_hitters`` override stays a plain
    ``estimate > T`` filter of a T-independent map (the contract on
    ``FlowCollector.heavy_hitters``).  Enforce agreement with the
    one-call-per-threshold path across the collector matrix."""

    @pytest.mark.parametrize("name", ["hashflow", "hashpipe", "elastic",
                                      "flowradar", "spacesaving", "exact"])
    def test_sweep_equals_individual_evaluations(self, name):
        import random

        from repro.core.hashflow import HashFlow
        from repro.sketches.elastic import ElasticSketch
        from repro.sketches.flowradar import FlowRadar
        from repro.sketches.hashpipe import HashPipe
        from repro.sketches.spacesaving import SpaceSaving

        factories = {
            "hashflow": lambda: HashFlow(main_cells=128, seed=3),
            "hashpipe": lambda: HashPipe(cells_per_stage=32, seed=3),
            "elastic": lambda: ElasticSketch(
                heavy_cells_per_stage=32, light_cells=96, seed=3
            ),
            "flowradar": lambda: FlowRadar(counting_cells=256, seed=3),
            "spacesaving": lambda: SpaceSaving(capacity=64),
            "exact": ExactCollector,
        }
        rng = random.Random(1)
        flows = [rng.getrandbits(104) | 1 for _ in range(400)]
        stream = [
            flows[min(int(rng.expovariate(4.0 / 400)), 399)] for _ in range(8000)
        ]
        truth: dict[int, int] = {}
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
        collector = factories[name]()
        collector.process_all(stream)
        thresholds = [5, 20, 60, 150]
        swept = threshold_sweep(collector, truth, thresholds)
        individual = [
            evaluate_heavy_hitters(collector, truth, t) for t in thresholds
        ]
        assert swept == individual

"""Tests for repro.specs: CollectorSpec, the registry, and lifecycle.

The core contract (ISSUE 3 acceptance): for every registered collector
kind, ``build(collector.spec)`` and ``collector.clone()`` reproduce a
collector whose replayed ``records()`` — and batched query answers —
are bit-identical to the original's after the same trace, including
through a JSON file round trip.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.hashflow import HashFlow
from repro.netwide.deployment import NetworkDeployment
from repro.netwide.sharding import ShardedCollector
from repro.netwide.topology import FlowRouter, fat_tree_core
from repro.sketches.exact import ExactCollector
from repro.specs import (
    CollectorSpec,
    SpecError,
    as_spec,
    available_kinds,
    build,
    build_evaluated,
    derive_seed,
    reseeded,
)
from repro.specs.sizing import DEFAULT_MEMORY_BYTES, resolve_scale
from repro.traces.profiles import CAIDA

#: One small configuration per registered kind (sharded nests a spec).
_HF = {"kind": "hashflow", "params": {"main_cells": 256, "seed": 3}}
SPEC_MATRIX = {
    "hashflow": {"main_cells": 256, "seed": 3},
    "hashflow_multihash": ("hashflow", {"main_cells": 256, "variant": "multihash", "seed": 3}),
    "adaptive_hashflow": {"main_cells": 256, "window": 512, "seed": 3},
    "hashpipe": {"cells_per_stage": 64, "seed": 3},
    "elastic": {"heavy_cells_per_stage": 64, "light_cells": 192, "seed": 3},
    "flowradar": {"counting_cells": 512, "seed": 3},
    "exact": {},
    "sampled": {"every_n": 3, "seed": 3},
    "spacesaving": {"capacity": 128},
    "cuckoo": {"n_cells": 512, "seed": 3},
    "sharded": {"collector": _HF, "n_shards": 3, "seed": 5},
}


def matrix_spec(case: str) -> CollectorSpec:
    entry = SPEC_MATRIX[case]
    if isinstance(entry, tuple):
        return CollectorSpec(*entry)
    return CollectorSpec(case, entry)


def make_stream(n_packets: int = 1500, n_flows: int = 120, seed: int = 7) -> list[int]:
    rng = random.Random(seed)
    flows = [rng.getrandbits(104) | 1 for _ in range(n_flows)]
    return [flows[min(int(rng.expovariate(4.0 / n_flows)), n_flows - 1)]
            for _ in range(n_packets)]


STREAM = make_stream()


class TestCollectorSpec:
    def test_json_round_trip(self):
        spec = matrix_spec("sharded")
        assert CollectorSpec.from_json(spec.to_json()) == spec

    def test_dict_round_trip_normalizes_tuples(self):
        spec = CollectorSpec("hashflow", {"main_cells": 64})
        again = CollectorSpec.from_dict(spec.to_dict())
        assert again == spec
        assert hash(again) == hash(spec)

    def test_frozen(self):
        spec = CollectorSpec("hashflow", {"main_cells": 64})
        with pytest.raises(AttributeError):
            spec.kind = "other"

    def test_params_detached_from_caller(self):
        params = {"main_cells": 64}
        spec = CollectorSpec("hashflow", params)
        params["main_cells"] = 9999
        assert spec.params["main_cells"] == 64

    def test_with_params(self):
        spec = CollectorSpec("hashflow", {"main_cells": 64, "seed": 1})
        other = spec.with_params(seed=2)
        assert other.params["seed"] == 2
        assert other.params["main_cells"] == 64
        assert spec.params["seed"] == 1

    def test_rejects_non_json_params(self):
        with pytest.raises(SpecError):
            CollectorSpec("hashflow", {"fn": lambda: None})

    def test_rejects_unknown_fields(self):
        with pytest.raises(SpecError):
            CollectorSpec.from_dict({"kind": "hashflow", "stuff": 1})

    def test_rejects_bad_json(self):
        with pytest.raises(SpecError):
            CollectorSpec.from_json("not json")

    def test_file_round_trip(self, tmp_path):
        spec = matrix_spec("sharded")
        path = tmp_path / "collector.json"
        spec.save(path)
        assert CollectorSpec.load(path) == spec


class TestRegistry:
    def test_available_kinds_cover_matrix(self):
        kinds = set(available_kinds())
        assert {s.kind for s in map(matrix_spec, SPEC_MATRIX)} <= kinds

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown collector kind"):
            build("nope")

    def test_kind_attribute_set(self):
        assert HashFlow.kind == "hashflow"
        assert build("hashflow", main_cells=16).kind == "hashflow"

    def test_as_spec_from_collector(self):
        collector = build("hashflow", main_cells=64, seed=2)
        assert as_spec(collector) == collector.spec

    def test_as_spec_rejects_garbage(self):
        with pytest.raises(SpecError):
            as_spec(42)

    def test_build_seed_override(self):
        a = build("hashflow", main_cells=64, seed=1)
        b = build(a.spec, seed=9)
        assert b.spec.params["seed"] == 9

    def test_seed_ignored_for_seedless_kinds(self):
        collector = build("spacesaving", capacity=32, seed=7)
        assert "seed" not in collector.spec.params

    def test_missing_required_params_is_spec_error(self):
        with pytest.raises(SpecError, match="cannot build"):
            build("hashflow")


class TestResolveScale:
    def test_explicit_scale(self):
        assert resolve_scale(0.5) == 0.5

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale(None) == 0.1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert resolve_scale(None) == 0.25

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_scale(0.0)


class TestSizingRules:
    """The paper's §IV-A memory budgets, as the registry sizes them."""

    @pytest.mark.parametrize("kind", ["hashflow", "hashpipe", "elastic", "flowradar"])
    def test_budget_tight_fit(self, kind):
        budget = 256 * 1024
        collector = build(kind, memory_bytes=budget)
        assert 0.95 * budget < collector.memory_bytes <= budget

    def test_paper_1mb_record_capacity(self):
        """1 MB ≈ 60K full flow records (paper §IV-A); HashFlow's main
        table gets ~55K cells after paying for the ancillary table."""
        hf = build("hashflow", memory_bytes=DEFAULT_MEMORY_BYTES)
        assert 54_000 < hf.main.n_cells < 56_500
        assert hf.ancillary.n_cells == hf.main.n_cells

    def test_hashpipe_cells(self):
        hp = build("hashpipe", memory_bytes=DEFAULT_MEMORY_BYTES)
        assert hp.stages == 4
        assert 4 * hp.cells_per_stage == pytest.approx(61_680, rel=0.01)

    def test_elastic_equal_cells(self):
        es = build("elastic", memory_bytes=DEFAULT_MEMORY_BYTES)
        assert es.light.width == es.heavy_cells_per_stage * 3

    def test_flowradar_bloom_ratio(self):
        fr = build("flowradar", memory_bytes=DEFAULT_MEMORY_BYTES)
        assert fr.bloom.n_bits == 40 * fr.counting_cells
        # ~40K counting cells per MB -> the decode cliff near 33-40K flows.
        assert 39_000 < fr.counting_cells < 41_000

    def test_evaluated_collectors_share_one_budget(self):
        collectors = build_evaluated(128 * 1024)
        assert list(collectors) == [
            "HashFlow",
            "HashPipe",
            "ElasticSketch",
            "FlowRadar",
        ]
        sizes = [c.memory_bytes for c in collectors.values()]
        assert max(sizes) - min(sizes) < 0.05 * 128 * 1024

    def test_no_sizing_rule_is_spec_error(self):
        with pytest.raises(SpecError, match="no registered sizing rule"):
            build("exact", memory_bytes=1024)

    def test_scale_applies_to_budget(self):
        full = build("hashflow", memory_bytes=1 << 20)
        tenth = build("hashflow", memory_bytes=1 << 20, scale=0.1)
        ratio = tenth.main.n_cells / full.main.n_cells
        assert ratio == pytest.approx(0.1, rel=0.01)


class TestRoundTripMatrix:
    """build(collector.spec) and clone() reproduce bit-identical records."""

    @pytest.fixture(params=sorted(SPEC_MATRIX), ids=sorted(SPEC_MATRIX))
    def case(self, request):
        return request.param

    def test_spec_round_trip_records(self, case):
        original = build(matrix_spec(case))
        twin = build(original.spec)
        original.process_all(STREAM)
        twin.process_all(STREAM)
        assert original.records() == twin.records()

    def test_clone_round_trip_records(self, case):
        original = build(matrix_spec(case))
        clone = original.clone()
        assert clone is not original
        assert clone.spec == original.spec
        original.process_all(STREAM)
        clone.process_all(STREAM)
        assert original.records() == clone.records()
        probes = STREAM[:200] + [1 << 90]
        assert np.array_equal(
            original.query_batch(probes), clone.query_batch(probes)
        )

    def test_json_file_round_trip_records(self, case, tmp_path):
        original = build(matrix_spec(case))
        path = tmp_path / "spec.json"
        original.spec.save(path)
        twin = build(CollectorSpec.load(path))
        original.process_all(STREAM)
        twin.process_all(STREAM)
        assert original.records() == twin.records()

    def test_repr_derived_from_spec(self, case):
        collector = build(matrix_spec(case))
        assert repr(collector).startswith(f"{collector.spec.kind}(")

    def test_fresh_factory_produces_empty_clones(self, case):
        collector = build(matrix_spec(case))
        collector.process_all(STREAM[:100])
        factory = collector.fresh_factory()
        first, second = factory(), factory()
        assert first is not second
        assert first.records() == {}
        assert first.spec == collector.spec


class TestReseeding:
    def test_derive_seed_deterministic(self):
        assert derive_seed(3, "s1") == derive_seed(3, "s1")
        assert derive_seed(3, "s1") != derive_seed(3, "s2")
        assert derive_seed(3, 0) != derive_seed(4, 0)

    def test_reseed_changes_seedful_spec(self):
        spec = matrix_spec("hashflow")
        assert spec.reseed(1).params["seed"] != spec.params["seed"]
        assert spec.reseed(1) == spec.reseed(1)

    def test_reseed_keeps_seedless_spec(self):
        spec = matrix_spec("spacesaving")
        assert spec.reseed(1) == spec

    def test_reseed_of_seedful_wrapper_also_reseeds_nested(self):
        """A sharded spec deployed per switch must vary both its own
        shard-assignment seed and its shards' collector seeds."""
        spec = matrix_spec("sharded")
        a, b = reseeded(spec, "switch-A"), reseeded(spec, "switch-B")
        assert a.params["seed"] != b.params["seed"]
        assert (
            a.params["collector"]["params"]["seed"]
            != b.params["collector"]["params"]["seed"]
        )


class TestOrchestrationWithoutLambdas:
    """Deployment and sharding layers run from one prototype spec."""

    def test_network_deployment_from_spec_is_deterministic(self):
        trace = CAIDA.generate(n_flows=400, seed=11)
        spec = CollectorSpec("hashflow", {"main_cells": 128, "seed": 4})
        reports = []
        for _ in range(2):
            router = FlowRouter(fat_tree_core(2, 1), seed=3)
            deployment = NetworkDeployment(router, spec)
            reports.append(deployment.run(trace).merged_records)
        assert reports[0] == reports[1]

    def test_network_deployment_switch_seeds_differ(self):
        router = FlowRouter(fat_tree_core(2, 1), seed=3)
        deployment = NetworkDeployment(
            router, CollectorSpec("hashflow", {"main_cells": 64, "seed": 4})
        )
        seeds = {c.spec.params["seed"] for c in deployment.collectors.values()}
        assert len(seeds) == len(deployment.collectors)

    def test_network_deployment_from_prototype_collector(self):
        router = FlowRouter(fat_tree_core(2, 1), seed=3)
        prototype = HashFlow(main_cells=64, seed=4)
        deployment = NetworkDeployment(router, prototype)
        assert deployment.spec == prototype.spec

    def test_registered_class_is_its_kind(self):
        assert as_spec(ExactCollector) == CollectorSpec("exact")
        assert as_spec(HashFlow, {"main_cells": 64}) == CollectorSpec(
            "hashflow", {"main_cells": 64}
        )
        sharded = ShardedCollector(ExactCollector, n_shards=2)
        exact = ExactCollector()
        sharded.process_all(STREAM)
        exact.process_all(STREAM)
        assert sharded.records() == exact.records()

    def test_sharded_round_trip_via_netwide_spec(self):
        spec = matrix_spec("sharded")
        a, b = build(spec), build(spec)
        a.process_all(STREAM)
        b.process_all(STREAM)
        assert a.records() == b.records()
        assert a.shards[0].spec != a.shards[1].spec  # derived seeds differ

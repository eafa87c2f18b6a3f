"""Tests for PipelineSpec: JSON round trip, validation, reseeding.

Mirrors the ``tests/test_specs.py`` contract one level up: a pipeline
built from a JSON ``PipelineSpec`` — including a file round trip and a
deterministic reseed — reproduces bit-identical results.
"""

from __future__ import annotations

import pytest

from repro.specs import SpecError
from repro.stream import (
    Pipeline,
    PipelineSpec,
    build_rotation,
)

_HF = {"kind": "hashflow", "params": {"main_cells": 512, "seed": 3}}
_SOURCE = {
    "kind": "synthetic",
    "params": {"profile": "caida", "n_flows": 400, "seed": 5},
}

#: One spec per (rotation, sinks) shape — the round-trip matrix.
SPEC_MATRIX = {
    "no_rotation": dict(source=_SOURCE, collector=_HF),
    "count": dict(
        source=_SOURCE, collector=_HF,
        rotation={"kind": "count", "params": {"epoch_packets": 300}},
        sinks=({"kind": "archive"},),
    ),
    "interval": dict(
        source=_SOURCE, collector=_HF,
        rotation={"kind": "interval", "params": {"window": 0.01}},
        sinks=({"kind": "netflow_v5"}, {"kind": "jsonl"}),
    ),
    "timeout": dict(
        source=_SOURCE, collector=_HF,
        rotation={"kind": "timeout",
                  "params": {"inactive_timeout": 0.005,
                             "expiry_interval": 128}},
        sinks=({"kind": "netflow_v5"}, {"kind": "heavy_hitters",
                                        "params": {"threshold": 10}}),
        packet_rate=5000.0,
    ),
    "wrapped_collector": dict(
        source=_SOURCE,
        collector={"kind": "sharded",
                   "params": {"collector": _HF, "n_shards": 2, "seed": 4}},
        sinks=({"kind": "cardinality"}, {"kind": "anomaly"}),
    ),
}

_NAN = float("nan")

#: Rotation stages a spec must refuse at load.  Fractional counts
#: truncate to 0 and stall the feed loop (``admit`` 0 while ``due``);
#: NaN timeouts compare false everywhere and expire nothing; 2.5 and
#: ``true`` were silently read as 2 and 1.
BAD_ROTATIONS = {
    "epoch_packets_0.5": ("count", {"epoch_packets": 0.5}),
    "expiry_interval_0.5": ("timeout", {"expiry_interval": 0.5}),
    "inactive_timeout_nan": ("timeout", {"inactive_timeout": _NAN}),
    "active_timeout_nan": ("timeout", {"active_timeout": _NAN}),
    "epoch_packets_2.5": ("count", {"epoch_packets": 2.5}),
    "epoch_packets_true": ("count", {"epoch_packets": True}),
    "window_nan": ("interval", {"window": _NAN}),
    "window_inf": ("interval", {"window": float("inf")}),
    "unknown_param": ("count", {"epoch_packets": 5, "epoch_secs": 1}),
    "string_value": ("count", {"epoch_packets": "5"}),
}


@pytest.fixture(params=sorted(SPEC_MATRIX), ids=sorted(SPEC_MATRIX))
def case(request):
    return request.param


class TestRoundTrip:
    def test_json_round_trip(self, case):
        spec = PipelineSpec(**SPEC_MATRIX[case])
        again = PipelineSpec.from_json(spec.to_json())
        assert again == spec
        assert hash(again) == hash(spec)

    def test_dict_round_trip(self, case):
        spec = PipelineSpec(**SPEC_MATRIX[case])
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = PipelineSpec(**SPEC_MATRIX["timeout"])
        path = tmp_path / "pipeline.json"
        spec.save(path)
        assert PipelineSpec.load(path) == spec

    def test_pipeline_spec_is_a_fixed_point(self, case):
        # Building normalizes constructor defaults into the stage
        # params, so the derived spec is a fixed point: deriving it
        # again reproduces it exactly.
        derived = Pipeline.from_spec(PipelineSpec(**SPEC_MATRIX[case])).spec
        assert Pipeline.from_spec(derived).spec == derived


class TestValidation:
    def test_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown pipeline spec fields"):
            PipelineSpec.from_dict(
                {"source": _SOURCE, "collector": _HF, "stuff": 1}
            )

    def test_rejects_malformed_stage(self):
        with pytest.raises(SpecError, match="source stage"):
            PipelineSpec(source={"params": {}}, collector=_HF)
        with pytest.raises(SpecError, match="sink stage"):
            PipelineSpec(source=_SOURCE, collector=_HF, sinks=({"bad": 1},))

    def test_rejects_non_json_stage_params(self):
        with pytest.raises(SpecError, match="JSON"):
            PipelineSpec(
                source={"kind": "synthetic", "params": {"fn": lambda: None}},
                collector=_HF,
            )

    def test_collector_validated_as_collector_spec(self):
        with pytest.raises(SpecError):
            PipelineSpec(source=_SOURCE, collector={"not": "a spec"})

    def test_rejects_bad_scalars(self):
        with pytest.raises(SpecError, match="chunk_size"):
            PipelineSpec(source=_SOURCE, collector=_HF, chunk_size=0)
        with pytest.raises(SpecError, match="packet_rate"):
            PipelineSpec(source=_SOURCE, collector=_HF, packet_rate=0)

    @pytest.mark.parametrize("case", sorted(BAD_ROTATIONS))
    def test_rejects_bad_rotation_at_load(self, case):
        kind, params = BAD_ROTATIONS[case]
        with pytest.raises(SpecError, match="rotation|must be"):
            PipelineSpec(
                source=_SOURCE, collector=_HF,
                rotation={"kind": kind, "params": params},
            )

    def test_build_rotation_rejects_unknown_param_as_spec_error(self):
        with pytest.raises(SpecError, match="epoch_secs"):
            build_rotation({"kind": "count", "params": {"epoch_secs": 1}})

    def test_build_rotation_rejects_string_value(self):
        with pytest.raises(ValueError, match="epoch_packets"):
            build_rotation({"kind": "count", "params": {"epoch_packets": "5"}})

    @pytest.mark.parametrize(
        "field,value",
        [("packet_rate", _NAN), ("packet_rate", float("inf")),
         ("chunk_size", 0.5), ("packet_bytes", 0.5)],
    )
    def test_rejects_scalars_that_stall_or_zero_the_feed(self, field, value):
        with pytest.raises(SpecError, match=field):
            PipelineSpec(source=_SOURCE, collector=_HF, **{field: value})
        with pytest.raises(ValueError, match=field):
            Pipeline(source=_SOURCE, collector=_HF, **{field: value})

    def test_unknown_kinds_fail_at_build(self):
        spec = PipelineSpec(
            source={"kind": "martian", "params": {}}, collector=_HF
        )
        with pytest.raises(ValueError, match="unknown source"):
            Pipeline.from_spec(spec)


class TestReseeding:
    def test_reseed_deterministic(self):
        spec = PipelineSpec(**SPEC_MATRIX["count"])
        assert spec.reseed(5) == spec.reseed(5)
        assert spec.reseed(5) != spec.reseed(6)

    def test_reseed_changes_collector_keeps_source(self):
        spec = PipelineSpec(**SPEC_MATRIX["count"])
        reseeded = spec.reseed("switch-A")
        assert reseeded.source == spec.source
        assert (
            reseeded.collector["params"]["seed"]
            != spec.collector["params"]["seed"]
        )

    def test_reseed_recurses_into_wrapped_collector(self):
        spec = PipelineSpec(**SPEC_MATRIX["wrapped_collector"])
        reseeded = spec.reseed(7)
        assert (
            reseeded.collector["params"]["collector"]["params"]["seed"]
            != spec.collector["params"]["collector"]["params"]["seed"]
        )

    def test_reseeded_clones_are_deterministic(self):
        spec = PipelineSpec(**SPEC_MATRIX["count"]).reseed(11)
        first = Pipeline.from_spec(spec).run()
        second = Pipeline.from_spec(spec).run()
        assert first.summary() == second.summary()
        # And a different salt measures the same workload differently
        # sized tables aside — the packet stream is unchanged.
        other = Pipeline.from_spec(PipelineSpec(**SPEC_MATRIX["count"]).reseed(12))
        assert other.run().packets == first.packets


class TestRebuildDeterminism:
    def test_spec_built_twins_match(self, case):
        spec = PipelineSpec(**SPEC_MATRIX[case])
        first = Pipeline.from_spec(spec).run()
        second = Pipeline.from_spec(PipelineSpec.from_json(spec.to_json())).run()
        assert first.summary() == second.summary()

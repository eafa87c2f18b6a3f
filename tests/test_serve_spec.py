"""Tests for repro.serve.spec: the frozen serve-daemon description."""

from __future__ import annotations

import pytest

from repro.netwide import sharding
from repro.serve import ServeSpec
from repro.specs import SpecError


def pipeline_dict(**overrides) -> dict:
    base = {
        "source": {"kind": "udp", "params": {"host": "127.0.0.1", "port": 0}},
        "collector": {"kind": "hashflow", "params": {"main_cells": 1024}},
        "rotation": {"kind": "interval", "params": {"window": 1.0}},
        "sinks": [{"kind": "archive"}],
    }
    base.update(overrides)
    return base


def sharded_collector(n_shards: int) -> dict:
    return {
        "kind": "sharded",
        "params": {
            "collector": {"kind": "hashflow", "params": {"main_cells": 512}},
            "n_shards": n_shards,
            "seed": 0,
        },
    }


def count_shard_builds(monkeypatch, allow: bool = True) -> list:
    """Record every shard a sharded collector builds from now on.

    With ``allow=False`` the first build fails the test at once: a
    collector that built shards before checking ``n_shards`` would
    otherwise build ``2**64`` of them.
    """
    built = []
    build = sharding.build

    def counting_build(spec):
        built.append(spec)
        if not allow:
            raise AssertionError("a shard was built before n_shards was checked")
        return build(spec)

    monkeypatch.setattr(sharding, "build", counting_build)
    return built


class TestValidation:
    def test_source_must_be_udp(self):
        offline = pipeline_dict(
            source={"kind": "synthetic", "params": {"profile": "caida", "n_flows": 10}}
        )
        with pytest.raises(SpecError, match="udp"):
            ServeSpec(pipeline=offline)

    def test_multi_worker_needs_sharded_collector(self):
        with pytest.raises(SpecError, match="sharded"):
            ServeSpec(pipeline=pipeline_dict(), workers=2)

    def test_multi_worker_needs_enough_shards(self):
        pipeline = pipeline_dict(collector=sharded_collector(2))
        with pytest.raises(SpecError, match="shards"):
            ServeSpec(pipeline=pipeline, workers=3)
        ServeSpec(pipeline=pipeline, workers=2)  # enough

    @pytest.mark.parametrize("n_shards", [sharding.MAX_SHARDS + 1, 2**64 + 1])
    def test_huge_shard_count_refused_before_any_shard_is_built(
        self, n_shards, monkeypatch
    ):
        built = count_shard_builds(monkeypatch, allow=False)
        data = {"pipeline": pipeline_dict(collector=sharded_collector(n_shards))}
        with pytest.raises(SpecError, match="n_shards"):
            ServeSpec.from_dict(data)
        assert built == []

    def test_shard_count_at_the_ceiling_loads(self, monkeypatch):
        built = count_shard_builds(monkeypatch)
        collector = sharded_collector(sharding.MAX_SHARDS)
        ServeSpec.from_dict({"pipeline": pipeline_dict(collector=collector)})
        assert len(built) == sharding.MAX_SHARDS

    def test_workers_must_be_positive(self):
        with pytest.raises(SpecError, match="workers"):
            ServeSpec(pipeline=pipeline_dict(), workers=0)

    @pytest.mark.parametrize("slots", [0, 1, 3, 1000])
    def test_ring_slots_power_of_two(self, slots):
        with pytest.raises(SpecError, match="power of two"):
            ServeSpec(pipeline=pipeline_dict(), ring_slots=slots)

    def test_backpressure_mode_checked(self):
        with pytest.raises(SpecError, match="backpressure"):
            ServeSpec(pipeline=pipeline_dict(), backpressure="explode")

    def test_stats_interval_positive(self):
        with pytest.raises(SpecError, match="stats_interval"):
            ServeSpec(pipeline=pipeline_dict(), stats_interval=0)

    def test_nested_pipeline_validated(self):
        with pytest.raises(SpecError):
            ServeSpec(pipeline={"source": {"kind": "udp"}})  # no collector

    def test_rotation_that_stalls_the_worker_refused(self):
        # int(0.5) == 0 would make the worker's feed loop spin forever.
        stalling = {"kind": "count", "params": {"epoch_packets": 0.5}}
        with pytest.raises(SpecError, match="epoch_packets"):
            ServeSpec(pipeline=pipeline_dict(rotation=stalling))


class TestRefusedBeforeBinding:
    """A spec its workers cannot build or drive fails at load, in the
    parent, instead of as one dead worker per process."""

    TIMEOUT = {
        "kind": "timeout",
        "params": {"inactive_timeout": 0.05, "active_timeout": 60.0},
    }

    def test_timeout_rotation_needs_an_evicting_collector(self):
        pipeline = pipeline_dict(
            collector={"kind": "hashpipe", "params": {"cells_per_stage": 256}},
            rotation=self.TIMEOUT,
        )
        with pytest.raises(SpecError, match="evict"):
            ServeSpec(pipeline=pipeline)

    def test_collector_the_workers_cannot_build_refused(self):
        collector = sharded_collector(2)
        collector["params"]["jobs"] = 2
        with pytest.raises(SpecError, match="jobs"):
            ServeSpec(pipeline=pipeline_dict(collector=collector), workers=2)

    def test_cli_exits_2_without_binding(self, monkeypatch, capsys):
        from repro.experiments.cli import main
        from repro.serve import ServeDaemon

        def started(*_args, **_kwargs):
            raise AssertionError("serve bound its socket or started workers")

        monkeypatch.setattr(ServeDaemon, "bind", started)
        monkeypatch.setattr(ServeDaemon, "run", started)
        argv = ["serve", "--collector", "hashpipe",
                "--rotate", "timeout:0.05,60", "--listen", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot build serve daemon" in err and "evict" in err


class TestSerialization:
    def test_json_round_trip(self):
        spec = ServeSpec(
            pipeline=pipeline_dict(collector=sharded_collector(4)),
            workers=2,
            ring_slots=4096,
            backpressure="drop",
            stats_interval=2.5,
        )
        again = ServeSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_dict() == spec.to_dict()

    def test_file_round_trip(self, tmp_path):
        spec = ServeSpec(pipeline=pipeline_dict())
        path = tmp_path / "serve.json"
        spec.save(path)
        assert ServeSpec.load(path) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            ServeSpec.from_dict({"pipeline": pipeline_dict(), "turbo": True})

    def test_not_a_mapping_rejected(self):
        with pytest.raises(SpecError):
            ServeSpec.from_dict(["nope"])


class TestAccessors:
    def test_listen_reads_source_params(self):
        spec = ServeSpec(
            pipeline=pipeline_dict(
                source={"kind": "udp", "params": {"host": "0.0.0.0", "port": 9999}}
            )
        )
        assert spec.listen == ("0.0.0.0", 9999)

    def test_with_listen_rebinds_only_the_source(self):
        spec = ServeSpec(pipeline=pipeline_dict())
        moved = spec.with_listen("10.0.0.1", 2055)
        assert moved.listen == ("10.0.0.1", 2055)
        assert moved.pipeline["collector"] == spec.pipeline["collector"]
        assert spec.listen == ("127.0.0.1", 0)  # original untouched

    def test_pipeline_spec_property(self):
        spec = ServeSpec(pipeline=pipeline_dict())
        assert spec.pipeline_spec.source["kind"] == "udp"

"""Tests for repro.experiments.cli."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig4"])
        assert args.experiment == "fig4"
        assert args.scale is None
        assert args.seed == 0

    def test_run_with_options(self):
        args = build_parser().parse_args(
            ["run", "fig6", "--scale", "0.5", "--seed", "7", "--out", "x"]
        )
        assert args.scale == 0.5
        assert args.seed == 7
        assert args.out == "x"

    def test_kernels_command(self):
        args = build_parser().parse_args(["kernels"])
        assert args.command == "kernels"

    def test_collect_kernel_flag(self):
        args = build_parser().parse_args(
            ["collect", "--collector", "hashflow", "--kernel", "native"]
        )
        assert args.kernel == "native"

    def test_collect_kernel_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["collect", "--collector", "hashflow", "--kernel", "fortran"]
            )


class TestKernelsCommand:
    def test_reports_tier_state(self, capsys):
        code = main(["kernels"])
        out = capsys.readouterr().out
        assert "# kernel tiers" in out
        assert "native available" in out
        assert "build cache" in out
        # Exit code mirrors availability: 0 with a compiler, 1 without.
        assert code in (0, 1)

    def test_collect_with_explicit_kernel(self, capsys):
        from repro.native import native_available

        kernel = "native" if native_available() else "numpy"
        code = main(
            ["collect", "--collector", "hashflow", "--memory", "65536",
             "--flows", "500", "--kernel", kernel]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f'"kernel": "{kernel}"' in out


class TestCollectParser:
    def test_collector_kind(self):
        args = build_parser().parse_args(
            ["collect", "--collector", "hashflow", "--memory", "65536"]
        )
        assert args.command == "collect"
        assert args.collector == "hashflow"
        assert args.memory == 65536

    def test_spec_file(self):
        args = build_parser().parse_args(["collect", "--spec", "c.json"])
        assert args.spec == "c.json"
        assert args.collector is None

    def test_collector_and_spec_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["collect", "--collector", "hashflow", "--spec", "c.json"]
            )


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "table1" in out

    def test_list_prints_collector_kinds(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hashflow" in out
        assert "flowradar" in out

    def test_collect_by_kind_and_spec_round_trip(self, capsys, tmp_path):
        spec_path = tmp_path / "hf.json"
        code = main(
            [
                "collect",
                "--collector",
                "hashflow",
                "--memory",
                "32768",
                "--flows",
                "1000",
                "--save-spec",
                str(spec_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fsc" in out
        assert spec_path.exists()
        # Rebuild from the saved spec file: the public --spec path.
        assert main(["collect", "--spec", str(spec_path), "--flows", "1000"]) == 0
        out2 = capsys.readouterr().out
        assert '"kind": "hashflow"' in out2

    def test_collect_unsizable_kind_errors(self, capsys):
        assert main(["collect", "--collector", "exact", "--memory", "1024"]) == 2
        assert "cannot build collector" in capsys.readouterr().err

    def test_collect_missing_spec_file_errors(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["collect", "--spec", str(missing)]) == 2
        assert "cannot build collector" in capsys.readouterr().err

    def test_collect_malformed_spec_file_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["collect", "--spec", str(bad)]) == 2
        assert "cannot build collector" in capsys.readouterr().err

    def test_collect_budget_too_small_errors(self, capsys):
        """A budget that sizes tables to zero cells fails cleanly."""
        assert main(["collect", "--collector", "hashflow", "--memory", "10"]) == 2
        assert "cannot build collector" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_stream_round_trip_via_saved_spec(self, capsys, tmp_path):
        spec_path = tmp_path / "pipeline.json"
        code = main(
            [
                "stream",
                "--trace", "caida",
                "--flows", "1000",
                "--memory", "32768",
                "--rotate", "timeout:0.05,60",
                "--sink", "netflow",
                "--sink", "heavy_hitters:50",
                "--save-spec", str(spec_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "netflow parse-back: OK" in out
        assert spec_path.exists()
        # Rebuild from the saved PipelineSpec: the public --spec path.
        assert main(["stream", "--spec", str(spec_path)]) == 0
        out2 = capsys.readouterr().out
        assert "netflow parse-back: OK" in out2

    def test_stream_rotation_variants(self, capsys):
        for rotate in ("count:2000", "interval:0.1", "none"):
            assert main(
                [
                    "stream",
                    "--flows", "500",
                    "--memory", "32768",
                    "--rotate", rotate,
                    "--sink", "archive",
                ]
            ) == 0
        capsys.readouterr()

    def test_stream_rejects_bad_stage_args(self):
        base = ["stream", "--flows", "200", "--memory", "32768"]
        with pytest.raises(SystemExit):
            main([*base, "--rotate", "count"])  # missing budget
        with pytest.raises(SystemExit):
            main([*base, "--rotate", "none:5"])  # stray argument
        with pytest.raises(SystemExit):
            main([*base, "--sink", "archive:5"])  # stray argument
        with pytest.raises(SystemExit):
            main([*base, "--sink", "heavy_hitters"])  # missing threshold
        with pytest.raises(SystemExit):
            main([*base, "--sink", "nope"])

    def test_stream_missing_spec_file_errors(self, capsys, tmp_path):
        assert main(["stream", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "cannot build pipeline" in capsys.readouterr().err

    def test_run_small_experiment(self, capsys, tmp_path):
        code = main(["run", "fig2d", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig2d" in out
        assert (tmp_path / "fig2d.txt").exists()

    def test_run_table1_tiny(self, capsys):
        assert main(["run", "table1", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "caida" in out


def _row(out: str, metric: str) -> str:
    """One metric's value in a stream/serve table."""
    for line in out.splitlines():
        name, _, value = line.partition("|")
        if name.strip() == metric:
            return value.strip()
    raise AssertionError(f"no {metric} row in:\n{out}")


class TestServeCommand:
    def test_saved_spec_reruns_the_same_serve(self, capsys, tmp_path):
        import signal

        signals = (signal.SIGTERM, signal.SIGINT)
        handlers = [signal.getsignal(s) for s in signals]
        path = tmp_path / "serve.json"
        base = ["serve", "--replay", "caida:400", "--listen", "0"]
        assert main([*base, "--memory", "32768", "--rotate", "interval:0.5",
                     "--save-spec", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--spec", str(path), *base[1:]]) == 0
        again = capsys.readouterr().out
        for metric in ("exported_records", "flows", "netflow_v5.bytes"):
            assert _row(first, metric) == _row(again, metric)
        assert _row(again, "drops") == "0"
        # run_serve restores the signal handlers it installed.
        assert [signal.getsignal(s) for s in signals] == handlers


_SERVE = {
    "pipeline": {
        "source": {"kind": "udp", "params": {"host": "127.0.0.1", "port": 0}},
        "collector": {"kind": "hashflow", "params": {"main_cells": 1024}},
        "rotation": {"kind": "interval", "params": {"window": 0.5}},
        "sinks": [{"kind": "archive"}],
    },
}
_PIPELINE = {
    "source": {"kind": "synthetic", "params": {"profile": "caida", "n_flows": 200}},
    "collector": {"kind": "hashflow", "params": {"main_cells": 1024}},
}

#: ``(command, base spec, field, value, error line)``: spec files each
#: command must refuse with exit 2 and its ``cannot build`` line.
MALFORMED_FILES = {
    "serve stats_interval 'fast'": ("serve", _SERVE, "stats_interval", "fast"),
    "serve workers 'two'": ("serve", _SERVE, "workers", "two"),
    "serve workers 1.7": ("serve", _SERVE, "workers", 1.7),
    "serve workers '1'": ("serve", _SERVE, "workers", "1"),
    "serve ring_slots null": ("serve", _SERVE, "ring_slots", None),
    "serve faults 5": ("serve", _SERVE, "faults", 5),
    "serve sink kind 'nope'": (
        "serve", _SERVE, "pipeline",
        {**_SERVE["pipeline"], "sinks": [{"kind": "nope"}]},
    ),
    "stream sinks 7": ("stream", _PIPELINE, "sinks", 7),
    "stream chunk_size 1.5": ("stream", _PIPELINE, "chunk_size", 1.5),
    "collect params 7": ("collect", {"kind": "hashflow"}, "params", 7),
    "collect kind 5": ("collect", {"kind": "hashflow"}, "kind", 5),
}
_ERROR_LINES = {
    "serve": "cannot build serve daemon",
    "stream": "cannot build pipeline",
    "collect": "cannot build collector",
}


class TestMalformedSpecFiles:
    @pytest.fixture(autouse=True)
    def no_binding(self, monkeypatch):
        from repro.serve import ServeDaemon

        def started(*_args, **_kwargs):
            raise AssertionError("serve bound its socket or started workers")

        monkeypatch.setattr(ServeDaemon, "bind", started)
        monkeypatch.setattr(ServeDaemon, "run", started)

    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_refused_with_exit_2(self, case, capsys, tmp_path):
        command, base, field, value = MALFORMED_FILES[case]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**base, field: value}))
        assert main([command, "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert _ERROR_LINES[command] in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["serve", "stream"])
    def test_fractional_timeout_sweep_refused(self, command, capsys, tmp_path):
        path = tmp_path / "spec.json"
        assert main([
            command, "--rotate", "timeout:0.05,60,128.7", "--save-spec", str(path),
        ]) == 2
        err = capsys.readouterr().err
        assert _ERROR_LINES[command] in err and "Traceback" not in err
        assert not path.exists()

    def test_integer_timeout_sweep_saved(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        assert main([
            "stream", "--flows", "300", "--rotate", "timeout:0.05,60,128",
            "--save-spec", str(path),
        ]) == 0
        rotation = json.loads(path.read_text())["rotation"]
        assert rotation["params"] == {
            "inactive_timeout": 0.05, "active_timeout": 60.0, "expiry_interval": 128,
        }

    @pytest.mark.parametrize("command,base", [
        ("serve", _SERVE), ("stream", _PIPELINE), ("collect", {"kind": "hashflow"}),
    ])
    def test_truncated_file_refused(self, command, base, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(base)[:-3])
        assert main([command, "--spec", str(path)]) == 2
        assert _ERROR_LINES[command] in capsys.readouterr().err

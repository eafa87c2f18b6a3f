"""Smoke tests: every example script runs end to end (at reduced size).

Each example module is imported from its file and its ``main()`` is run
after shrinking the module-level workload constants, so the scripts are
exercised exactly as shipped but finish in seconds.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    """Import an example script as a throwaway module."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys, monkeypatch):
        module = load_example("quickstart")
        # quickstart has no module constant; patch the trace size through
        # the profile's generate by running as-is at its (small) size.
        module.main()
        out = capsys.readouterr().out
        assert "records reported" in out
        assert "main-table utilization" in out

    def test_heavy_hitter_monitoring(self, capsys):
        module = load_example("heavy_hitter_monitoring")
        module.N_FLOWS = 2000
        module.MEMORY_BYTES = 32 * 1024
        module.THRESHOLDS = (25, 100)
        module.main()
        out = capsys.readouterr().out
        assert "HashFlow" in out
        assert "top talkers" in out

    def test_trace_analysis(self, capsys):
        module = load_example("trace_analysis")
        module.N_FLOWS = 2000
        module.main()
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "pcap round trip" in out
        assert "OK" in out

    def test_switch_pipeline_demo(self, capsys):
        module = load_example("switch_pipeline_demo")
        module.N_FLOWS = 1500
        module.main()
        out = capsys.readouterr().out
        assert "Kpps" in out
        assert "register-level main table" in out

    def test_network_wide(self, capsys):
        module = load_example("network_wide")
        module.N_FLOWS = 2000
        module.CELLS_PER_SWITCH = 600
        module.main()
        out = capsys.readouterr().out
        assert "network-wide merged coverage" in out

    def test_model_exploration(self, capsys):
        module = load_example("model_exploration")
        module.N = 5000
        module.main()
        out = capsys.readouterr().out
        assert "sweet spot" in out
        assert "0.7" in out

    def test_ddos_detection(self, capsys):
        module = load_example("ddos_detection")
        module.N_FLOWS = 2000
        module.main()
        out = capsys.readouterr().out
        assert "ALERT" in out
        assert "victim" in out
        assert "port scan" in out

    def test_netflow_export(self, capsys):
        module = load_example("netflow_export")
        module.N_FLOWS = 1500
        module.main()
        out = capsys.readouterr().out
        assert "NetFlow v5" in out
        assert "OK" in out
        assert "MISMATCH" not in out
        assert "spec round trip" in out

    def test_epoch_monitoring(self, capsys):
        module = load_example("epoch_monitoring")
        module.N_FLOWS = 1800
        module.CELLS = 512
        module.EPOCH_PACKETS = 4000
        module.main()
        out = capsys.readouterr().out
        assert "count rotation" in out
        assert "fresh tables per epoch: match" in out
        assert "timeout pipeline" in out
        assert "AdaptiveHashFlow" in out

    def test_p4_codegen(self, capsys, tmp_path, monkeypatch):
        module = load_example("p4_codegen")
        module.MEMORY_BYTES = 64 * 1024
        out_file = tmp_path / "hf.p4"
        monkeypatch.setattr("sys.argv", ["p4_codegen.py", str(out_file)])
        module.main()
        out = capsys.readouterr().out
        assert "probe stages in ingress: 3" in out
        assert out_file.exists()
        assert "V1Switch(" in out_file.read_text()


class TestExampleHygiene:
    def test_all_examples_have_main_guard(self):
        for path in EXAMPLES_DIR.glob("*.py"):
            text = path.read_text()
            assert '__name__ == "__main__"' in text, path.name

    def test_quickstart_exists(self):
        assert (EXAMPLES_DIR / "quickstart.py").exists()

    def test_at_least_four_examples(self):
        assert len(list(EXAMPLES_DIR.glob("*.py"))) >= 4

"""Experiment harness: runners, figure regeneration, reporting.

Collector construction goes through the spec registry
(:mod:`repro.specs`).
"""

from repro.experiments.ascii_plot import line_chart, plot_result
from repro.experiments.figures import EXPERIMENTS
from repro.experiments.report import pivot, render_table, save_result
from repro.experiments.runner import ExperimentResult, Workload, make_workload
from repro.specs import build, build_evaluated
from repro.specs.sizing import DEFAULT_MEMORY_BYTES, resolve_scale

__all__ = [
    "DEFAULT_MEMORY_BYTES",
    "EXPERIMENTS",
    "ExperimentResult",
    "Workload",
    "build",
    "build_evaluated",
    "line_chart",
    "make_workload",
    "pivot",
    "plot_result",
    "render_table",
    "resolve_scale",
    "save_result",
]

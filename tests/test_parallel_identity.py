"""Serial-vs-parallel bit-identity of every rewired regeneration.

The engine's contract (DESIGN.md §6) is that ``REPRO_JOBS``/``jobs``
changes wall-clock time and nothing else.  This matrix runs every
figure that was rewired onto the sweep engine at ``jobs=2`` and
asserts the resulting ``ExperimentResult`` rows are *exactly* equal to
the serial rows — float for float, row order included.
"""

from __future__ import annotations

import pytest

from repro.experiments import figures

TINY = 0.01

#: Every regeneration rewired onto repro.parallel, with a scale that
#: keeps the matrix fast (table1 needs a few more flows for stats).
REWIRED = [
    ("table1", {"scale": 0.02}),
    ("fig4", {"scale": TINY}),
    ("fig5", {"scale": TINY}),
    ("fig6", {"scale": TINY}),
    ("fig7", {"scale": TINY}),
    ("fig8", {"scale": TINY}),
    ("fig9", {"scale": TINY}),
    ("fig10", {"scale": TINY}),
]


@pytest.mark.parametrize("name,kwargs", REWIRED, ids=[n for n, _ in REWIRED])
def test_figure_bit_identical_at_two_workers(name, kwargs):
    func = getattr(figures, name)
    serial = func(seed=0, jobs=1, **kwargs)
    parallel = func(seed=0, jobs=2, **kwargs)
    assert parallel.columns == serial.columns
    assert parallel.params == serial.params
    assert parallel.rows == serial.rows


def test_env_var_drives_figures(monkeypatch):
    """REPRO_JOBS engages the pool without any code-level opt-in."""
    serial = figures.fig4(scale=TINY, seed=0)
    monkeypatch.setenv("REPRO_JOBS", "2")
    parallel = figures.fig4(scale=TINY, seed=0)
    assert parallel.rows == serial.rows

"""Registered memory sizing rules: paper Section IV-A parameter rules.

All algorithms are given the *same amount of memory* in every
experiment.  A full flow record is a 104-bit flow ID plus a 32-bit
counter ("So 1 MB memory approximately corresponds to 60K flow
records").  Per-algorithm cell sizes:

* **HashFlow** — main cell 136 b; ancillary cell 16 b (8-bit digest +
  8-bit counter); same number of cells in the two tables; main table is
  3 pipelined sub-tables with α = 0.7.
* **HashPipe** — 4 equal sub-tables of 136 b cells.
* **ElasticSketch** (hardware) — heavy cell 169 b (key + vote+ + vote− +
  flag) across 3 sub-tables; light part one count-min array of 8-bit
  counters; the two parts use the same number of cells.
* **FlowRadar** — counting cell 168 b (FlowXOR + FlowCount +
  PacketCount); Bloom bits = 40 × counting cells; 4 Bloom hashes and 3
  counting hashes.

These formulas are sizing rules registered with the collector registry
(:func:`repro.specs.registry.register_sizing`), so
``build(kind, memory_bytes=...)`` sizes any kind the same way the
experiment harness does.  Each rule maps ``(memory_bytes, explicit
params)`` to the *size* parameters only — everything else comes from
the collector's constructor defaults, and explicit params always win.
"""

from __future__ import annotations

import os
from typing import Any, Mapping

from repro.flow.key import FLOW_KEY_BITS
from repro.specs.registry import register_sizing

COUNTER_BITS = 32
RECORD_BITS = FLOW_KEY_BITS + COUNTER_BITS  # 136

HASHFLOW_ANCILLARY_CELL_BITS = 16  # 8-bit digest + 8-bit counter
ELASTIC_HEAVY_CELL_BITS = FLOW_KEY_BITS + 2 * COUNTER_BITS + 1  # 169
ELASTIC_LIGHT_CELL_BITS = 8
FLOWRADAR_CELL_BITS = FLOW_KEY_BITS + 2 * COUNTER_BITS  # 168
FLOWRADAR_BLOOM_RATIO = 40

DEFAULT_MEMORY_BYTES = 1 << 20  # 1 MB, the paper's default

#: Environment variable scaling experiment sizes (1.0 = paper scale).
SCALE_ENV = "REPRO_SCALE"
DEFAULT_SCALE = 0.1

#: Smallest budget a scaled experiment is allowed to shrink to.
MIN_MEMORY_BYTES = 4096


def resolve_scale(scale: float | None = None) -> float:
    """Resolve the experiment scale factor.

    Args:
        scale: explicit factor; if None, read ``REPRO_SCALE`` from the
            environment (default 0.1 — a laptop-friendly scale that
            preserves every load ratio ``m/n`` because memory and flow
            counts shrink together).

    Returns:
        A positive scale factor.
    """
    if scale is None:
        scale = float(os.environ.get(SCALE_ENV, DEFAULT_SCALE))
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return scale


def scaled_memory(scale: float, base: int = DEFAULT_MEMORY_BYTES) -> int:
    """Scale a memory budget, keeping it above the experiment floor."""
    return max(MIN_MEMORY_BYTES, int(round(base * scale)))


def hashflow_sizing(memory_bytes: int, params: Mapping[str, Any]) -> dict[str, Any]:
    """HashFlow under the budget: equal main/ancillary cell counts."""
    bits = memory_bytes * 8
    cells = int(bits // (RECORD_BITS + HASHFLOW_ANCILLARY_CELL_BITS))
    return {"main_cells": cells, "ancillary_cells": cells}


def hashpipe_sizing(memory_bytes: int, params: Mapping[str, Any]) -> dict[str, Any]:
    """HashPipe under the budget: ``stages`` equal 136-bit sub-tables."""
    stages = int(params.get("stages", 4))
    bits = memory_bytes * 8
    total_cells = bits // RECORD_BITS
    return {"cells_per_stage": int(total_cells // stages)}


def elastic_sizing(memory_bytes: int, params: Mapping[str, Any]) -> dict[str, Any]:
    """ElasticSketch (hardware) under the budget: equal heavy/light cells."""
    stages = int(params.get("stages", 3))
    bits = memory_bytes * 8
    pairs = bits // (ELASTIC_HEAVY_CELL_BITS + ELASTIC_LIGHT_CELL_BITS)
    heavy_per_stage = int(pairs // stages)
    return {
        "heavy_cells_per_stage": heavy_per_stage,
        "light_cells": int(heavy_per_stage * stages),
    }


def flowradar_sizing(memory_bytes: int, params: Mapping[str, Any]) -> dict[str, Any]:
    """FlowRadar under the budget: Bloom bits = 40 x counting cells."""
    bits = memory_bytes * 8
    cells = int(bits // (FLOWRADAR_CELL_BITS + FLOWRADAR_BLOOM_RATIO))
    return {"counting_cells": cells, "bloom_bits": cells * FLOWRADAR_BLOOM_RATIO}


def record_table_sizing(memory_bytes: int, params: Mapping[str, Any]) -> dict[str, Any]:
    """Full-record table capacity: 136 bits per (key, counter) entry."""
    return {"_cells": int(memory_bytes * 8 // RECORD_BITS)}


def spacesaving_sizing(memory_bytes: int, params: Mapping[str, Any]) -> dict[str, Any]:
    """Space-Saving under the budget: one full record per counter."""
    return {"capacity": record_table_sizing(memory_bytes, params)["_cells"]}


def cuckoo_sizing(memory_bytes: int, params: Mapping[str, Any]) -> dict[str, Any]:
    """Cuckoo flow cache under the budget: one full record per cell."""
    return {"n_cells": record_table_sizing(memory_bytes, params)["_cells"]}


register_sizing("hashflow", hashflow_sizing)
register_sizing("adaptive_hashflow", hashflow_sizing)
register_sizing("hashpipe", hashpipe_sizing)
register_sizing("elastic", elastic_sizing)
register_sizing("flowradar", flowradar_sizing)
register_sizing("spacesaving", spacesaving_sizing)
register_sizing("cuckoo", cuckoo_sizing)

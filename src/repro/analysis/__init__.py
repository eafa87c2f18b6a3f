"""Analysis layer: metrics, the occupancy model, and application evaluations."""

from repro.analysis.anomaly import (
    EwmaDetector,
    detect_flood_victims,
    detect_scanners,
    fanin_by_destination,
    fanout_by_source,
)
from repro.analysis.heavy_hitters import (
    HeavyHitterResult,
    evaluate_heavy_hitters,
    threshold_sweep,
)
from repro.analysis.significance import SweepStats, summarize
from repro.analysis.metrics import (
    average_relative_error,
    flow_set_coverage,
    precision_recall_f1,
    relative_error,
)
from repro.analysis.model import (
    multihash_empty_probs,
    multihash_utilization,
    pipelined_empty_probs,
    pipelined_improvement,
    pipelined_utilization,
    predicted_records,
    simulate_multihash_utilization,
    simulate_pipelined_utilization,
)

__all__ = [
    "EwmaDetector",
    "HeavyHitterResult",
    "SweepStats",
    "average_relative_error",
    "detect_flood_victims",
    "detect_scanners",
    "fanin_by_destination",
    "fanout_by_source",
    "summarize",
    "evaluate_heavy_hitters",
    "flow_set_coverage",
    "multihash_empty_probs",
    "multihash_utilization",
    "pipelined_empty_probs",
    "pipelined_improvement",
    "pipelined_utilization",
    "precision_recall_f1",
    "predicted_records",
    "relative_error",
    "simulate_multihash_utilization",
    "simulate_pipelined_utilization",
    "threshold_sweep",
]

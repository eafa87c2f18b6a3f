"""Performance metrics from the paper's evaluation (Section IV-A).

* **FSC** (Flow Set Coverage) — fraction of the ``n`` true flows whose
  records (with correct flow IDs) an algorithm can report.
* **ARE** (Average Relative Error) — mean of ``|est/true - 1|`` over a
  set of flows, with 0 used as the estimate for unreported flows.
* **RE** (Relative Error) — ``|est/true - 1|`` for scalar quantities
  (cardinality).
* **F1 score** — harmonic mean of precision and recall for heavy-hitter
  detection.

The set metrics accept dicts, sets, iterables or ndarrays and operate
on C-level set/dict views without extra copies where possible; ARE is
array-native — it accepts a precomputed estimates array (typically from
``FlowCollector.query_batch``) or a collector, against either a
``{flow: size}`` dict or a true-size vector (see
``Workload.truth_batch`` / ``Workload.truth_counts``).  Flow keys are
104-bit packed integers, which do not fit an ``int64`` lane, so the
set intersections deliberately stay on Python's C-level hash sets
rather than ``np.intersect1d``.
"""

from __future__ import annotations

import math

import numpy as np


def _as_key_view(flows):
    """A set-like view of flow IDs without copying dicts/sets.

    Dict inputs contribute their (C-level) key view, sets pass through,
    ndarrays are converted to Python ints (104-bit keys do not fit
    int64 lanes anyway), and other iterables are materialized once.
    """
    if isinstance(flows, dict):
        return flows.keys()
    if isinstance(flows, (set, frozenset)):
        return flows
    if isinstance(flows, np.ndarray):
        return set(flows.tolist())
    return set(flows)


def flow_set_coverage(reported, true_flows) -> float:
    """Flow Set Coverage: correctly reported flow IDs over true flows.

    Args:
        reported: flow IDs the algorithm reports — a dict (records),
            set, ndarray or any iterable; duplicate IDs count once.
        true_flows: ground-truth flow IDs (same accepted types).

    Returns:
        ``|reported ∩ true| / |true|``; 1.0 for an empty truth set.
    """
    truth = _as_key_view(true_flows)
    if not truth:
        return 1.0
    return len(truth & _as_key_view(reported)) / len(truth)


def relative_error(estimate: float, true_value: float) -> float:
    """Scalar relative error ``|est/true - 1|`` (paper's RE metric).

    Raises:
        ValueError: if ``true_value`` is zero (the metric is undefined).
    """
    if true_value == 0:
        raise ValueError("relative error undefined for true value 0")
    if math.isinf(estimate):
        return math.inf
    return abs(estimate / true_value - 1.0)


def _are_from_arrays(estimates: np.ndarray, true_sizes: np.ndarray) -> float:
    """Vectorized ARE over aligned estimate / true-size vectors."""
    if len(estimates) != len(true_sizes):
        raise ValueError(
            f"estimates length {len(estimates)} != true sizes length "
            f"{len(true_sizes)}"
        )
    if not len(true_sizes):
        return 0.0
    true = np.asarray(true_sizes, dtype=np.float64)
    if (true == 0).any():
        raise ValueError("average relative error undefined for true size 0")
    est = np.asarray(estimates, dtype=np.float64)
    # inf estimates propagate to an inf mean, as relative_error does.
    return float(np.mean(np.abs(est / true - 1.0)))


def average_relative_error(estimates, true_sizes) -> float:
    """Average Relative Error of per-flow size estimates.

    Per the paper: "Given a flow ID, an algorithm estimates the number
    of packets belonging to this flow.  If no result can be reported, we
    use 0 as the default value" — a missing flow therefore contributes
    ``|0/true - 1| = 1`` to the mean.

    Args:
        estimates: one of

            * a precomputed per-flow estimates array (ndarray or
              sequence), aligned element-wise with ``true_sizes`` —
              the batch-query path (``collector.query_batch(...)``);
            * a collector exposing ``query_batch`` — queried in one
              batched pass over the truth keys;
            * a point-query callable, e.g. ``collector.query`` — the
              legacy scalar path.
        true_sizes: ground-truth sizes — a ``{flow: packets}`` dict, or
            a per-flow size vector aligned with an estimates array.
            All sizes must be > 0.

    Returns:
        The mean relative error over all true flows; 0.0 for an empty
        truth set.  ``inf`` estimates propagate to an ``inf`` mean, the
        way :func:`relative_error` propagates them.

    Raises:
        ValueError: if any true size is zero (the metric is undefined),
            or if aligned arrays differ in length.
        TypeError: if ``true_sizes`` is a plain vector but ``estimates``
            is a callable/collector (the flow keys are unknown).
    """
    if not isinstance(true_sizes, dict):
        if callable(estimates) or hasattr(estimates, "query_batch"):
            raise TypeError(
                "a true-size vector needs a precomputed estimates array; "
                "pass a {flow: size} dict to query a collector"
            )
        return _are_from_arrays(estimates, np.asarray(true_sizes))
    if not true_sizes:
        return 0.0
    if hasattr(estimates, "query_batch"):
        return _are_from_arrays(
            estimates.query_batch(list(true_sizes.keys())),
            np.fromiter(true_sizes.values(), np.int64, count=len(true_sizes)),
        )
    if callable(estimates):
        total = 0.0
        for key, true in true_sizes.items():
            if true == 0:
                raise ValueError(
                    "average relative error undefined for true size 0"
                )
            # An inf estimate yields an inf term and hence an inf mean
            # (matching the array path, which validates every true size
            # before computing); keep iterating so a zero true size
            # later in the dict still raises.
            total += abs(estimates(key) / true - 1.0)
        return total / len(true_sizes)
    return _are_from_arrays(
        estimates, np.fromiter(true_sizes.values(), np.int64, count=len(true_sizes))
    )


def precision_recall_f1(reported, true_set) -> tuple[float, float, float]:
    """Precision (PR), recall (RR) and F1 for a detection task.

    Args:
        reported: detected item IDs (``c1`` of them, ``c`` correct) —
            dict, set, ndarray or iterable.
        true_set: ground-truth item IDs (``c2`` of them), same types.

    Returns:
        ``(precision, recall, f1)``.  Degenerate cases: with an empty
        truth set, recall is 1; with an empty report, precision is 1;
        F1 is 0 whenever precision + recall is 0.
    """
    reported = _as_key_view(reported)
    truth = _as_key_view(true_set)
    correct = len(reported & truth)
    precision = correct / len(reported) if reported else 1.0
    recall = correct / len(truth) if truth else 1.0
    if precision + recall == 0:
        return precision, recall, 0.0
    f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1

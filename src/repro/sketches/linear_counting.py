"""Linear counting (Whang, Vander-Zanden & Taylor 1990).

The paper (Section IV-A) uses linear counting for cardinality
estimation: ElasticSketch applies it to its count-min sketch and
HashFlow to its ancillary table.  The estimator inverts the expected
fraction of empty cells after hashing ``n`` distinct items into ``m``
cells: ``E[empty/m] = e^{-n/m}``, so ``n̂ = -m · ln(empty/m)``.
"""

from __future__ import annotations

import math


def linear_counting_estimate(n_cells: int, n_empty: int) -> float:
    """Estimate distinct items from cell occupancy.

    Args:
        n_cells: total number of cells in the hash structure.
        n_empty: number of cells still empty.

    Returns:
        The linear-counting estimate; ``inf`` if no cell is empty
        (structure saturated — the estimator's known failure mode).

    Raises:
        ValueError: on impossible inputs.
    """
    if n_cells <= 0:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    if not 0 <= n_empty <= n_cells:
        raise ValueError(f"n_empty must be in [0, {n_cells}], got {n_empty}")
    if n_empty == 0:
        return math.inf
    return -n_cells * math.log(n_empty / n_cells)


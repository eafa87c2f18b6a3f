"""Flat state planes: the one storage layout of every table-backed sketch.

A *plane* is one flat array of per-cell state — 64-bit key halves,
counters, digests.  HashFlow's main and ancillary tables, HashPipe's
stages and count-min's rows all keep their state this way.  Planes are
Python lists on the numpy tier, because the per-packet Python walks
index lists faster than numpy arrays (DESIGN §2), and ``np.uint64`` /
``np.int64`` arrays on the native tier, where the C kernels mutate them
in place.  The helpers here work on either.
"""

from __future__ import annotations

from itertools import compress

import numpy as np


def new_plane(n: int, dtype, arrays: bool):
    """A zeroed plane of ``n`` cells: a numpy array or a Python list."""
    return np.zeros(n, dtype=dtype) if arrays else [0] * n


def cleared(plane):
    """``plane`` zeroed: an array in place, a list by a fresh one
    (faster than a copy)."""
    if isinstance(plane, np.ndarray):
        plane.fill(0)
        return plane
    return [0] * len(plane)


def occupied(plane, counts, dtype) -> np.ndarray:
    """``plane``'s cells whose ``counts`` entry is nonzero, in flat order.

    List planes are filtered at C speed without converting whole
    planes, so a rotation pays per resident record, not per cell.
    """
    if isinstance(counts, np.ndarray):
        return np.asarray(plane)[counts != 0]
    return np.fromiter(compress(plane, counts), dtype)

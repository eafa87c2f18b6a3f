"""Shared-memory plane layout for plane-backed collectors.

A HashFlow collector keeps its entire dataplane state in a handful of
flat *planes* (:mod:`repro.sketches.planes`): Python lists on the numpy
tier, numpy arrays on the native tier.  This module maps that state
onto a :class:`~repro.shm.segments.Segment` so several processes can
mutate one collector's tables in place:

* :func:`plane_specs` describes a collector's planes as ``(count,
  dtype)`` pairs in a **canonical order** (main-table key lo/hi,
  counters, optional byte plane, then ancillary digests and counters);
* :func:`adopt_planes` swaps carved segment views in for the
  collector's planes (copying current contents, so adoption is
  transparent mid-lifetime) — from then on the planes are numpy
  arrays on every tier;
* the canonical order is a function of the collector's *spec* alone,
  so a worker that rebuilds the same spec computes the same layout and
  attaches to the same offsets — no layout metadata crosses the pipe.

Only spec kinds in :data:`SHARED_PLANE_KINDS` participate: their state
is exactly these planes, nothing else (hash seeds and sizes are
rebuilt deterministically from the spec).
"""

from __future__ import annotations

import numpy as np

from repro.shm.segments import Segment, carve, layout_bytes

#: Collector spec kinds whose dataplane state is fully plane-shareable.
SHARED_PLANE_KINDS = frozenset({"hashflow"})


def _plane_slots(collector) -> list[tuple[object, str, np.dtype]]:
    """``(table, attribute, dtype)`` of every plane, in canonical order."""
    from repro.core.ancillary import AncillaryTable
    from repro.core.maintable import MainTable

    main = getattr(collector, "main", None)
    ancillary = getattr(collector, "ancillary", None)
    if not isinstance(main, MainTable) or not isinstance(ancillary, AncillaryTable):
        raise TypeError(
            f"{type(collector).__name__} does not hold HashFlow table planes"
        )
    key, count = np.dtype(np.uint64), np.dtype(np.int64)
    slots = [(main, "k_lo", key), (main, "k_hi", key), (main, "counts", count)]
    if main.bytes is not None:
        slots.append((main, "bytes", count))
    slots += [(ancillary, "digests", key), (ancillary, "counts", count)]
    return slots


def plane_arrays(collector) -> list:
    """The collector's state planes (lists or arrays), in canonical order."""
    return [getattr(table, attr) for table, attr, _ in _plane_slots(collector)]


def plane_specs(collector) -> list[tuple[int, np.dtype]]:
    """``(count, dtype)`` of every plane, in canonical order."""
    return [
        (len(getattr(table, attr)), dtype)
        for table, attr, dtype in _plane_slots(collector)
    ]


def adopt_planes(collector, views: list[np.ndarray], copy: bool = True) -> None:
    """Swap carved segment views in for the collector's planes.

    Args:
        collector: a plane-backed collector (see :func:`plane_arrays`).
        views: arrays from :func:`~repro.shm.segments.carve`, in the
            same canonical order.
        copy: copy current plane contents into the views first (the
            owner's path — state built before sharing survives).  A
            worker attaching to live planes passes False: the shared
            state is already authoritative.
    """
    slots = _plane_slots(collector)
    if len(views) != len(slots):
        raise ValueError(
            f"expected {len(slots)} plane views, got {len(views)}"
        )
    for (table, attr, dtype), view in zip(slots, views):
        old = getattr(table, attr)
        if view.dtype != dtype or view.size != len(old):
            raise ValueError(
                f"plane view mismatch: {view.dtype}[{view.size}] for "
                f"{dtype}[{len(old)}]"
            )
        if copy:
            view[:] = old
        setattr(table, attr, view)


def segment_for_planes(collectors, label: str = "planes"):
    """One owned segment sized for several collectors' planes.

    Returns:
        ``(segment, per_collector_views)`` where ``per_collector_views``
        lists each collector's carved views in canonical order
        (collectors are laid out consecutively, in input order).
    """
    from repro.shm.segments import create_segment

    specs = []
    counts = []
    for collector in collectors:
        cs = plane_specs(collector)
        counts.append(len(cs))
        specs.extend(cs)
    segment = create_segment(max(1, layout_bytes(specs)), label=label)
    views = carve(segment, specs)
    grouped = []
    pos = 0
    for n in counts:
        grouped.append(views[pos : pos + n])
        pos += n
    return segment, grouped


def carve_for_planes(segment: Segment, collectors) -> list[list[np.ndarray]]:
    """Carve an existing segment with the layout of ``collectors``.

    The attach-side mirror of :func:`segment_for_planes`: a worker that
    rebuilt the same collector specs recovers the same per-collector
    view groups.
    """
    specs = []
    counts = []
    for collector in collectors:
        cs = plane_specs(collector)
        counts.append(len(cs))
        specs.extend(cs)
    views = carve(segment, specs)
    grouped = []
    pos = 0
    for n in counts:
        grouped.append(views[pos : pos + n])
        pos += n
    return grouped

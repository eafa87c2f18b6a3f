"""Shared-memory segments (DESIGN §9).

* :mod:`repro.shm.segments` — named segments with a refcounted
  registry, atexit + crash-safe unlink, ``/dev/shm`` leak checks; the
  serve daemon's packet rings (:mod:`repro.serve.ring`) sit on them;
* :mod:`repro.shm.batch` — whole traces shared by segment name (the
  zero-copy dispatch path for parallel sweep cells).
"""

from repro.shm.batch import SharedTraceRef, attach_trace, share_trace
from repro.shm.segments import (
    SEGMENT_PREFIX,
    Segment,
    attach_segment,
    carve,
    create_segment,
    layout_bytes,
    owned_segments,
)

__all__ = [
    "SEGMENT_PREFIX",
    "Segment",
    "SharedTraceRef",
    "attach_segment",
    "attach_trace",
    "carve",
    "create_segment",
    "layout_bytes",
    "owned_segments",
    "share_trace",
]

"""Shared-memory segments (DESIGN §9).

:mod:`repro.shm.segments` — named segments with a refcounted registry,
atexit + crash-safe unlink, ``/dev/shm`` leak checks.  The serve
daemon's packet rings (:mod:`repro.serve.ring`) are the only segments
the program creates.
"""

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
    "attach_segment",
    "carve",
    "create_segment",
    "layout_bytes",
    "owned_segments",
]

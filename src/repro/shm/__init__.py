"""Shared-memory shard-parallel ingest (DESIGN §9).

The building blocks that let several processes mutate one collector's
tables in place:

* :mod:`repro.shm.segments` — named segments with a refcounted
  registry, atexit + crash-safe unlink, ``/dev/shm`` leak checks;
* :mod:`repro.shm.planes` — the canonical plane layout of a
  collector inside one segment;
* :mod:`repro.shm.ingest` — the multi-process shard ingest engine
  behind ``ShardedCollector(jobs=N)`` and ``REPRO_SHARD_JOBS``;
* :mod:`repro.shm.batch` — whole traces shared by segment name (the
  zero-copy dispatch path for netwide/pcap pipeline sources).
"""

from repro.shm.batch import SharedTraceRef, attach_trace, share_trace
from repro.shm.ingest import SHARD_JOBS_ENV, ShardIngestEngine, resolve_shard_jobs
from repro.shm.planes import (
    SHARED_PLANE_KINDS,
    adopt_planes,
    plane_arrays,
    plane_specs,
    segment_for_planes,
)
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
    "SHARD_JOBS_ENV",
    "SHARED_PLANE_KINDS",
    "Segment",
    "SharedTraceRef",
    "ShardIngestEngine",
    "adopt_planes",
    "attach_segment",
    "attach_trace",
    "carve",
    "create_segment",
    "layout_bytes",
    "owned_segments",
    "plane_arrays",
    "plane_specs",
    "resolve_shard_jobs",
    "segment_for_planes",
    "share_trace",
]

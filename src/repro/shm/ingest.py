"""The shard-parallel ingest engine: multi-process Algorithm 1.

One :class:`ShardIngestEngine` serves one
:class:`~repro.netwide.sharding.ShardedCollector` in ``jobs > 1`` mode:

* at construction it moves every shard's table planes into **one owned
  shared segment** (:func:`~repro.shm.planes.segment_for_planes`) —
  the parent keeps fully functional shard collectors over the shared
  views, so queries, records and NetFlow export read the same memory
  the workers write, zero-copy;
* per batch, the coordinator's vectorized owner routing becomes one
  stable argsort: the batch's lo/hi/sizes arrays are written into a
  growable **input segment** grouped by shard (per-shard arrival order
  preserved — identical to the serial sub-batch construction), and
  each worker ingests a disjoint set of shard spans in place through
  :meth:`HashFlow.ingest_planes`;
* workers return integer cost-meter deltas per shard and the parent
  adds them to its shard twins — an **exact merge** (plain integer
  sums of the same increments the serial path makes), so merged meters
  and promotion counters are bit-identical to serial ingest.

Workers are a ``ProcessPoolExecutor`` with an initializer that
rebuilds every shard from its spec and adopts the shared plane views —
the layout is a function of the specs alone, so no offsets cross the
pipe.  Tasks are not pinned to processes, which is why *every* worker
holds all shards; disjoint span groups per task keep concurrent
mutation race-free.  A dead worker fails the whole batch fast
(``BrokenProcessPool`` → ``RuntimeError``) rather than silently
dropping packets.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.shm.planes import carve_for_planes, segment_for_planes
from repro.shm.segments import Segment, attach_segment, carve, create_segment

#: Environment variable selecting the default shard-ingest worker
#: count (default 1 = serial; 0 or negative = one per CPU).
SHARD_JOBS_ENV = "REPRO_SHARD_JOBS"

#: Input-segment plane dtypes: key halves + per-packet byte sizes.
_INPUT_SPECS = ((np.dtype(np.uint64)), (np.dtype(np.uint64)), (np.dtype(np.int64)))


def resolve_shard_jobs(jobs: int | None = None) -> int:
    """Resolve the shard-ingest worker count.

    Argument, else ``REPRO_SHARD_JOBS``, else 1 (serial).  ``0`` or a
    negative count means one worker per available CPU — mirroring
    :func:`repro.parallel.engine.resolve_jobs`.
    """
    if jobs is None:
        raw = os.environ.get(SHARD_JOBS_ENV, "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            raise ValueError(f"{SHARD_JOBS_ENV}={raw!r} is not an integer") from None
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _mp_context():
    """Prefer fork (cheap, inherits loaded numpy); fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _input_layout(capacity: int):
    return [(capacity, dtype) for dtype in _INPUT_SPECS]


# ----------------------------------------------------------------------
# Worker-side state
# ----------------------------------------------------------------------
_W_SHARDS: list | None = None
_W_PLANES: Segment | None = None
_W_INPUT: tuple[str, Segment] | None = None
#: Superseded input segments: their mappings may still back live numpy
#: views from an in-flight slice, so they are parked, never closed.
_W_RETIRED: list[Segment] = []


def _init_worker(plane_segment: str, spec_dicts: list[dict]) -> None:
    """Pool initializer: rebuild every shard over the shared planes."""
    global _W_SHARDS, _W_PLANES
    from repro.shm.planes import adopt_planes
    from repro.specs import CollectorSpec, build

    _W_PLANES = attach_segment(plane_segment)
    shards = [build(CollectorSpec.from_dict(d)) for d in spec_dicts]
    for shard, views in zip(shards, carve_for_planes(_W_PLANES, shards)):
        # The shared state is authoritative; never copy the fresh
        # zeroed planes over it.
        adopt_planes(shard, views, copy=False)
    _W_SHARDS = shards


def _input_views(name: str, capacity: int):
    """Attach (and cache) the current input segment's plane views."""
    global _W_INPUT
    if _W_INPUT is None or _W_INPUT[0] != name:
        if _W_INPUT is not None:
            _W_RETIRED.append(_W_INPUT[1])
        _W_INPUT = (name, attach_segment(name))
    return carve(_W_INPUT[1], _input_layout(capacity))


def _noop() -> None:
    """Warm-up task: forces the executor to spawn its workers."""
    return None


def _ingest_spans(
    input_segment: str,
    capacity: int,
    has_sizes: bool,
    spans: list[tuple[int, int, int]],
) -> list[tuple[int, int, int, int, int, int]]:
    """Worker entry: ingest ``(shard, start, count)`` spans in place.

    Returns per-shard meter deltas ``(shard, packets, hashes, reads,
    writes, promotions)`` — the exact integer increments this call
    made, so the parent's merge reproduces serial meters bit for bit.
    """
    assert _W_SHARDS is not None, "shard ingest pool initializer did not run"
    in_lo, in_hi, in_sizes = _input_views(input_segment, capacity)
    deltas = []
    for shard_index, start, count in spans:
        shard = _W_SHARDS[shard_index]
        meter = shard.meter
        before = (
            meter.packets, meter.hashes, meter.reads, meter.writes,
            shard.promotions,
        )
        stop = start + count
        shard.ingest_planes(
            in_lo[start:stop],
            in_hi[start:stop],
            in_sizes[start:stop] if has_sizes else None,
        )
        deltas.append((
            shard_index,
            meter.packets - before[0],
            meter.hashes - before[1],
            meter.reads - before[2],
            meter.writes - before[3],
            shard.promotions - before[4],
        ))
    return deltas


# ----------------------------------------------------------------------
# Parent-side engine
# ----------------------------------------------------------------------
class ShardIngestEngine:
    """Shared planes + worker pool behind one sharded collector.

    Args:
        shards: the parent's shard collectors (plane-backed); their
            planes are moved into a shared segment in place.
        spec_dicts: each shard's full spec dict (seed resolved) — what
            workers rebuild their twins from.
        jobs: worker processes (>= 2).
    """

    def __init__(self, shards, spec_dicts: list[dict], jobs: int):
        from repro.shm.planes import adopt_planes

        self.shards = list(shards)
        self.jobs = int(jobs)
        self._spec_dicts = list(spec_dicts)
        self._planes, grouped = segment_for_planes(self.shards, label="planes")
        for shard, views in zip(self.shards, grouped):
            adopt_planes(shard, views, copy=True)
        self._pool: ProcessPoolExecutor | None = None
        self._input: tuple[Segment, int] | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("shard ingest engine is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_mp_context(),
                initializer=_init_worker,
                initargs=(self._planes.name, self._spec_dicts),
            )
        return self._pool

    def warm(self) -> None:
        """Start the worker pool eagerly (first-batch latency aside).

        Pool startup — forking workers, attaching planes, rebuilding
        shard twins — is a per-collector constant, not a per-packet
        cost; benchmarks call this so timed regions measure ingest
        only.
        """
        pool = self._ensure_pool()
        for future in [pool.submit(_noop) for _ in range(self.jobs)]:
            future.result()

    def _ensure_input(self, n: int):
        """The input segment's views, grown (power of two) to fit ``n``."""
        if self._input is None or self._input[1] < n:
            capacity = 1024
            while capacity < n:
                capacity *= 2
            if self._input is not None:
                self._input[0].unlink()
            from repro.shm.segments import layout_bytes

            segment = create_segment(
                layout_bytes(_input_layout(capacity)), label="batch"
            )
            self._input = (segment, capacity)
        segment, capacity = self._input
        return segment, capacity, carve(segment, _input_layout(capacity))

    def close(self) -> None:
        """Shut the pool down and unlink both segments (idempotent).

        The parent's shards stay queryable: unlink removes the
        ``/dev/shm`` names but the plane mappings stay valid for the
        life of the process.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._planes.unlink()
        if self._input is not None:
            self._input[0].unlink()
            self._input = None

    # -- ingest --------------------------------------------------------
    def ingest(
        self,
        owners: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        sizes: np.ndarray | None,
    ) -> None:
        """Partition one routed batch and fan it out to the workers.

        ``owners`` is the coordinator hash's vectorized routing for the
        batch.  A stable argsort groups the packets by owner shard with
        per-shard arrival order preserved — the exact sub-sequences the
        serial path builds — and each worker task ingests a disjoint
        group of shard spans.
        """
        n = len(lo)
        if not n:
            return
        n_shards = len(self.shards)
        order = np.argsort(owners, kind="stable")
        counts = np.bincount(owners.astype(np.int64), minlength=n_shards)
        starts = np.zeros(n_shards, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        segment, capacity, (in_lo, in_hi, in_sizes) = self._ensure_input(n)
        in_lo[:n] = lo[order]
        in_hi[:n] = hi[order]
        has_sizes = sizes is not None
        if has_sizes:
            in_sizes[:n] = sizes[order]
        spans = [
            (s, int(starts[s]), int(counts[s]))
            for s in range(n_shards)
            if counts[s]
        ]
        # Round-robin over non-empty spans: shard loads are hash-
        # balanced, so groups stay even without weighing.
        groups = [spans[g :: self.jobs] for g in range(self.jobs)]
        pool = self._ensure_pool()
        try:
            # submit() raises too when the pool broke between batches.
            futures = [
                pool.submit(_ingest_spans, segment.name, capacity, has_sizes, group)
                for group in groups
                if group
            ]
            for future in futures:
                for shard_index, packets, hashes, reads, writes, promotions in (
                    future.result()
                ):
                    shard = self.shards[shard_index]
                    shard.meter.add(
                        packets=packets, hashes=hashes, reads=reads, writes=writes
                    )
                    shard.promotions += promotions
        except BrokenProcessPool as exc:
            # Fail fast and loud: a dead worker means this batch is
            # partially applied; the pool is unusable, so tear it down
            # (a later batch would restart it against intact planes,
            # but the caller should treat the collector as suspect).
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            raise RuntimeError(
                "shard ingest worker crashed mid-batch (shared planes may "
                "be partially updated); see the BrokenProcessPool cause"
            ) from exc

"""Hash-sharded measurement: scale capacity across cooperating switches.

Network-wide measurement can do more than merge redundant observations
(:mod:`repro.netwide.deployment`): if a coordinator assigns each flow
to exactly one *owner* switch (by hashing its ID — the standard
DHT/ECMP-style partition), the deployment's capacity becomes the *sum*
of the switches' tables, with no duplicate records to reconcile.  This
module implements that sharding layer over any collector type and lets
its capacity-scaling claim be tested directly.
"""

from __future__ import annotations

import multiprocessing as mp
import warnings
from collections.abc import Mapping

import numpy as np

from repro.flow.batch import KeyBatch
from repro.hashing.families import HashFunction
from repro.sketches.base import FlowCollector
from repro.specs import CollectorSpec, as_spec, build, register


@register("sharded")
class ShardedCollector(FlowCollector):
    """A collector façade that hash-partitions flows over shards.

    Args:
        collector: what each shard runs — a :class:`CollectorSpec`
            (or spec dict / kind name / registered collector class /
            prototype collector), from which shard ``i``'s instance is
            built with a deterministically derived seed
            (``spec.reseed(i)``).
        n_shards: number of shards (owner switches).
        seed: seed of the shard-assignment hash (independent of every
            collector-internal hash).
        jobs: ingest worker processes.  ``None`` (default) follows the
            ``REPRO_SHARD_JOBS`` environment variable; 1 means serial;
            ``> 1`` turns on shared-memory shard-parallel ingest
            (:mod:`repro.shm`): shard tables live in one shared
            segment, batches are owner-partitioned once and ingested
            in place by a worker pool, with records, query answers and
            merged meters bit-identical to serial.  Requires a
            spec-described collector of a shareable kind
            (:data:`repro.shm.SHARED_PLANE_KINDS`).  An explicit value
            is recorded in the spec; the env-resolved default keeps
            specs portable across machines (the modes are
            bit-identical anyway).
    """

    name = "ShardedCollector"

    def __init__(
        self,
        collector: CollectorSpec | FlowCollector | Mapping | str | type[FlowCollector],
        n_shards: int,
        seed: int = 0,
        jobs: int | None = None,
    ):
        super().__init__()
        from repro.shm import resolve_shard_jobs

        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = n_shards
        self.seed = seed
        self._jobs_param = None if jobs is None else int(jobs)
        self._shard_hash = HashFunction(seed ^ 0x5AAD)
        self._engine = None
        self._shard_spec = as_spec(collector)
        self.jobs = self._resolve_jobs(resolve_shard_jobs(jobs))
        if self.jobs > 1:
            self._check_shareable()
        # Both modes build identical shards; parallel mode then moves
        # their planes into shared memory.
        self.shards = [build(self._shard_spec.reseed(i)) for i in range(n_shards)]
        if self.jobs > 1:
            from repro.shm import ShardIngestEngine

            self._engine = ShardIngestEngine(
                self.shards,
                [shard.spec.to_dict() for shard in self.shards],
                self.jobs,
            )

    def _resolve_jobs(self, jobs: int) -> int:
        """Clamp the resolved worker count to what can actually help."""
        if jobs > self.n_shards:
            # A worker without shards to own would idle: spans are
            # per-shard, so parallelism is capped by the shard count.
            jobs = self.n_shards
        if jobs > 1 and mp.current_process().daemon:
            # Daemonic processes (e.g. the parallel sweep engine's own
            # workers) cannot fork children; degrade to serial ingest
            # rather than crash — the modes are bit-identical.
            warnings.warn(
                "ShardedCollector: shard-parallel ingest needs child "
                "processes, which daemonic workers cannot spawn; "
                "falling back to jobs=1",
                RuntimeWarning,
                stacklevel=3,
            )
            jobs = 1
        return jobs

    def _check_shareable(self) -> None:
        """Raise unless the shard spec's planes can live in shared memory."""
        from repro.shm import SHARED_PLANE_KINDS

        if self._shard_spec.kind not in SHARED_PLANE_KINDS:
            from repro.specs import SpecError

            raise SpecError(
                f"ShardedCollector(jobs>1) requires a shard collector "
                f"whose state is shareable as table planes; kind "
                f"{self._shard_spec.kind!r} is not "
                f"(supported: {sorted(SHARED_PLANE_KINDS)})"
            )

    def spec_params(self) -> dict:
        """Nested spec: the per-shard prototype, shard count, and the
        shard-assignment hash seed."""
        params = {
            "collector": self._shard_spec.to_dict(),
            "n_shards": self.n_shards,
            "seed": self.seed,
        }
        if self._jobs_param is not None:
            params["jobs"] = self._jobs_param
        return params

    def warm(self) -> None:
        """Pre-start the parallel-ingest worker pool (serial: no-op).

        Useful before timed regions: pool startup is a one-off cost
        otherwise paid by the first ``process_batch``.
        """
        if self._engine is not None:
            self._engine.warm()

    def close(self) -> None:
        """Release the parallel-ingest pool and shared segments.

        Idempotent; a no-op in serial mode.  The collector stays fully
        queryable afterwards (the parent's plane mappings survive the
        unlink), but further ``process*`` calls in parallel mode are
        rejected by the engine.
        """
        if self._engine is not None:
            self._engine.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def shard_of(self, key: int) -> int:
        """The owner shard of a flow."""
        return self._shard_hash.bucket(key, self.n_shards)

    def process(self, key: int) -> None:
        """Route the packet to its owner shard."""
        self.meter.packets += 1
        self.meter.hashes += 1  # the coordinator's shard hash
        self.shards[self.shard_of(key)].process(key)

    def process_batch(self, keys) -> None:
        """Batched updates routed per owner shard.

        The update-side mirror of :meth:`query_batch`: shard owners for
        the whole batch come from one vectorized pass of the
        coordinator hash, and each shard ingests its own sub-batch
        (halves and sizes sliced, not re-split) through the inner
        collector's batched update path.  Shards partition the flow
        space, so per-shard arrival order — which the index slicing
        preserves — is the only ordering that affects table state;
        records, query answers and meter totals are bit-identical to
        the scalar per-packet routing.
        """
        batch = KeyBatch.coerce(keys)
        n = len(batch)
        if not n:
            return
        owners = self._shard_hash.buckets_batch(batch, self.n_shards)
        self.meter.add(packets=n, hashes=n)  # one coordinator hash each
        lo, hi = batch.halves()
        sizes = batch.sizes
        if self._engine is not None:
            # Shard-parallel ingest: one stable partition of the key
            # halves, fanned out to the worker pool (repro.shm.ingest).
            self._engine.ingest(owners, lo, hi, sizes)
            return
        for s, shard in enumerate(self.shards):
            members = np.nonzero(owners == np.uint64(s))[0]
            if not len(members):
                continue
            sub = KeyBatch(
                None,
                lo[members],
                hi[members],
                None if sizes is None else sizes[members],
            )
            shard.process_batch(sub)

    def records(self) -> dict[int, int]:
        """Union of the shards' records (disjoint by construction)."""
        merged: dict[int, int] = {}
        for shard in self.shards:
            merged.update(shard.records())
        return merged

    def query(self, key: int) -> int:
        """Query the owner shard only."""
        return self.shards[self.shard_of(key)].query(key)

    def query_batch(self, keys) -> np.ndarray:
        """Batched queries routed per owner shard.

        Shard assignments for the whole batch come from one vectorized
        pass of the coordinator hash; each shard then answers its own
        sub-batch (halves sliced, not re-split) through its collector's
        batched query, and the results scatter back into key order.
        """
        batch = KeyBatch.coerce(keys)
        n = len(batch)
        out = np.zeros(n, dtype=np.int64)
        if not n:
            return out
        owners = self._shard_hash.buckets_batch(batch, self.n_shards)
        lo, hi = batch.halves()
        for s, shard in enumerate(self.shards):
            members = np.nonzero(owners == np.uint64(s))[0]
            if not len(members):
                continue
            out[members] = shard.query_batch(KeyBatch(None, lo[members], hi[members]))
        return out

    def estimate_cardinality(self) -> float:
        """Sum of the shards' estimates (flow spaces are disjoint)."""
        return sum(shard.estimate_cardinality() for shard in self.shards)

    def heavy_hitters(self, threshold: int) -> dict[int, int]:
        """Union of the shards' heavy hitters."""
        merged: dict[int, int] = {}
        for shard in self.shards:
            merged.update(shard.heavy_hitters(threshold))
        return merged

    def shard_loads(self) -> list[int]:
        """Packets processed per shard (balance diagnostic)."""
        return [shard.meter.packets for shard in self.shards]

    def reset(self) -> None:
        """Reset every shard and the façade meter."""
        for shard in self.shards:
            shard.reset()
        self.meter.reset()

    @property
    def memory_bits(self) -> int:
        """Total memory across shards."""
        return sum(shard.memory_bits for shard in self.shards)

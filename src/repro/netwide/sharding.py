"""Hash-sharded measurement: scale capacity across cooperating switches.

Network-wide measurement can do more than merge redundant observations
(:mod:`repro.netwide.deployment`): if a coordinator assigns each flow
to exactly one *owner* switch (by hashing its ID — the standard
DHT/ECMP-style partition), the deployment's capacity becomes the *sum*
of the switches' tables, with no duplicate records to reconcile.  This
module implements that sharding layer over any collector type and lets
its capacity-scaling claim be tested directly.

It is also the only code that knows shard ownership: the serve daemon
(:mod:`repro.serve.daemon`) routes packets to worker processes with
:func:`owner_hash` and gives each worker a :class:`ShardedCollector`
that builds only the shards it owns.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.flow.batch import KeyBatch
from repro.hashing.families import HashFunction
from repro.sketches.base import FlowCollector, column_records
from repro.specs import CollectorSpec, as_spec, build, positive_count, register

#: The most shards one sharded collector may have.  Every shard is a
#: whole collector built up front (and a serve spec builds its
#: collector at load), so an unbounded count costs unbounded time and
#: memory before anything can refuse it.
MAX_SHARDS = 1024


def owner_hash(seed: int) -> HashFunction:
    """The shard-assignment hash of a sharded collector seeded ``seed``
    (independent of every collector-internal hash); flow ``key`` is
    owned by shard ``owner_hash(seed).bucket(key, n_shards)``."""
    return HashFunction(seed ^ 0x5AAD)


@register("sharded")
class ShardedCollector(FlowCollector):
    """A collector façade that hash-partitions flows over shards.

    Args:
        collector: what each shard runs — a :class:`CollectorSpec`
            (or spec dict / kind name / registered collector class /
            prototype collector), from which shard ``i``'s instance is
            built with a deterministically derived seed
            (``spec.reseed(i)``).
        n_shards: number of shards (owner switches), at most
            :data:`MAX_SHARDS`.
        seed: seed of the shard-assignment hash (:func:`owner_hash`).

    ``shards`` maps shard index to collector.  A subclass may build a
    subset of them by overriding :meth:`owned_shards` (the serve
    daemon's workers do); every method then serves only those shards,
    and is only ever handed flows they own.
    """

    name = "ShardedCollector"

    def __init__(
        self,
        collector: CollectorSpec | FlowCollector | Mapping | str | type[FlowCollector],
        n_shards: int,
        seed: int = 0,
    ):
        super().__init__()
        n_shards = positive_count("n_shards", n_shards)
        if n_shards > MAX_SHARDS:
            raise ValueError(f"n_shards must be at most {MAX_SHARDS}, got {n_shards}")
        self.n_shards = n_shards
        self.seed = seed
        self._shard_hash = owner_hash(seed)
        self._shard_spec = as_spec(collector)
        self.shards = {
            s: build(self._shard_spec.reseed(s)) for s in self.owned_shards()
        }
        # Shards differ only in their derived seeds, so they all count
        # bytes or none do.
        self.track_bytes = any(
            getattr(shard, "track_bytes", False) for shard in self.shards.values()
        )

    def owned_shards(self) -> Iterable[int]:
        """The shard indices this instance builds: all of them."""
        return range(self.n_shards)

    def spec_params(self) -> dict:
        """Nested spec: the per-shard prototype, shard count, and the
        shard-assignment hash seed."""
        return {
            "collector": self._shard_spec.to_dict(),
            "n_shards": self.n_shards,
            "seed": self.seed,
        }

    def shard_of(self, key: int) -> int:
        """The owner shard of a flow."""
        return self._shard_hash.bucket(key, self.n_shards)

    def _owner(self, key: int) -> FlowCollector:
        return self.shards[self.shard_of(key)]

    def process(self, key: int, size: int = 0) -> None:
        """Route the packet to its owner shard (``size`` feeds the
        shards' byte counters when they track bytes)."""
        self.meter.packets += 1
        self.meter.hashes += 1  # the coordinator's shard hash
        if self.track_bytes:
            self._owner(key).process(key, size)
        else:
            self._owner(key).process(key)

    def _members(self, batch: KeyBatch):
        """``(shard, member indices)`` of every shard the batch touches.

        Shard owners for the whole batch come from one vectorized pass
        of the coordinator hash; index slicing keeps each shard's
        members in arrival order.
        """
        owners = self._shard_hash.buckets_batch(batch, self.n_shards)
        for s, shard in self.shards.items():
            members = np.nonzero(owners == np.uint64(s))[0]
            if len(members):
                yield shard, members

    def process_batch(self, keys) -> None:
        """Batched updates routed per owner shard.

        The update-side mirror of :meth:`query_batch`: each shard
        ingests its own sub-batch (halves and sizes sliced, not
        re-split) through the inner collector's batched update path.
        Shards partition the flow space, so per-shard arrival order is
        the only ordering that affects table state; records, query
        answers and meter totals are bit-identical to the scalar
        per-packet routing.
        """
        batch = KeyBatch.coerce(keys)
        n = len(batch)
        if not n:
            return
        self.meter.add(packets=n, hashes=n)  # one coordinator hash each
        lo, hi = batch.halves()
        sizes = batch.sizes
        for shard, members in self._members(batch):
            shard.process_batch(
                KeyBatch(
                    None,
                    lo[members],
                    hi[members],
                    None if sizes is None else sizes[members],
                )
            )

    def record_columns(self):
        """The shards' record columns concatenated in shard order (flow
        spaces are disjoint, so no key repeats); octets when the shards
        track bytes."""
        lo, hi, packets, octets = zip(
            *(shard.record_columns() for shard in self.shards.values())
        )
        return (
            np.concatenate(lo),
            np.concatenate(hi),
            np.concatenate(packets),
            np.concatenate(octets) if self.track_bytes else None,
        )

    def records(self) -> dict[int, int]:
        """Union of the shards' records (disjoint by construction)."""
        lo, hi, packets, _ = self.record_columns()
        return column_records(lo, hi, packets)

    def byte_records(self) -> dict[int, int]:
        """Union of the shards' per-flow byte counts (shards must track
        bytes, e.g. ``HashFlow(track_bytes=True)``)."""
        lo, hi, _, octets = self.record_columns()
        if octets is None:
            raise RuntimeError("byte tracking is disabled for these shards")
        return column_records(lo, hi, octets)

    def query(self, key: int) -> int:
        """Query the owner shard only."""
        return self._owner(key).query(key)

    def byte_query(self, key: int) -> int | None:
        """The owner shard's resident byte count for the flow."""
        return self._owner(key).byte_query(key)

    def evict(self, key: int) -> bool:
        """Evict the flow from its owner shard (shards must be
        evictable, e.g. HashFlow); what timeout rotation calls."""
        return self._owner(key).evict(key)

    def query_batch(self, keys) -> np.ndarray:
        """Batched queries routed per owner shard.

        Each shard answers its own sub-batch (halves sliced, not
        re-split) through its collector's batched query, and the
        results scatter back into key order.
        """
        batch = KeyBatch.coerce(keys)
        out = np.zeros(len(batch), dtype=np.int64)
        if not len(batch):
            return out
        lo, hi = batch.halves()
        for shard, members in self._members(batch):
            out[members] = shard.query_batch(KeyBatch(None, lo[members], hi[members]))
        return out

    def estimate_cardinality(self) -> float:
        """Sum of the shards' estimates (flow spaces are disjoint)."""
        return sum(shard.estimate_cardinality() for shard in self.shards.values())

    def heavy_hitters(self, threshold: int) -> dict[int, int]:
        """Union of the shards' heavy hitters."""
        merged: dict[int, int] = {}
        for shard in self.shards.values():
            merged.update(shard.heavy_hitters(threshold))
        return merged

    def shard_loads(self) -> dict[int, int]:
        """Packets processed per shard (balance diagnostic)."""
        return {s: shard.meter.packets for s, shard in self.shards.items()}

    def reset(self) -> None:
        """Reset every shard and the façade meter."""
        for shard in self.shards.values():
            shard.reset()
        self.meter.reset()

    @property
    def memory_bits(self) -> int:
        """Total memory across shards."""
        return sum(shard.memory_bits for shard in self.shards.values())

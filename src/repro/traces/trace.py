"""Trace container: a packet stream with known ground truth.

A :class:`Trace` stores a packet stream compactly: the list of distinct
flow keys, the per-flow packet counts, and an ``order`` array giving the
flow index of every packet.  This keeps multi-million-packet traces cheap
(one int32 per packet) while still allowing exact ground-truth queries,
flow subsetting ("select a constant number of flows from each trace and
feed the packets of these flows", paper Section IV-A), and iteration in
arrival order.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.flow.batch import KeyBatch
from repro.flow.packet import DEFAULT_PACKET_BYTES, Packet
from repro.flow.stats import TraceStats, size_cdf


class Trace:
    """An ordered packet stream over a fixed set of flows.

    Args:
        flow_keys: distinct packed 104-bit flow identifiers.
        order: int array, one entry per packet, giving the index into
            ``flow_keys`` of that packet's flow.
        timestamps: optional per-packet arrival times (seconds), same
            length as ``order`` and non-decreasing if provided.
        name: human-readable trace name (e.g. ``"caida"``).
    """

    def __init__(
        self,
        flow_keys: list[int],
        order: np.ndarray,
        timestamps: np.ndarray | None = None,
        name: str = "trace",
    ):
        order = np.asarray(order, dtype=np.int64)
        if order.size and (order.min() < 0 or order.max() >= len(flow_keys)):
            raise ValueError("order contains flow indices out of range")
        if timestamps is not None and len(timestamps) != len(order):
            raise ValueError(
                f"timestamps length {len(timestamps)} != packet count {len(order)}"
            )
        self.flow_keys = list(flow_keys)
        self.order = order
        self.timestamps = None if timestamps is None else np.asarray(timestamps, float)
        self.name = name
        self._sizes_cache: dict[int, int] | None = None
        self._flow_batch: KeyBatch | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of packets in the trace."""
        return int(self.order.size)

    @property
    def num_flows(self) -> int:
        """Number of distinct flows."""
        return len(self.flow_keys)

    def keys(self) -> Iterator[int]:
        """Iterate packed flow keys in packet arrival order."""
        flow_keys = self.flow_keys
        for idx in self.order:
            yield flow_keys[idx]

    def key_list(self) -> list[int]:
        """Materialize the per-packet key stream as a list (fast feeding)."""
        flow_keys = self.flow_keys
        return [flow_keys[idx] for idx in self.order.tolist()]

    def flow_batch(self) -> KeyBatch:
        """The distinct flow keys as a cached :class:`KeyBatch`.

        Both the packet stream (:meth:`key_batch`) and the evaluation
        truth vectors (``Workload.truth_batch``) derive from the same
        per-flow 64-bit halves, so they are split once and cached here.
        """
        if self._flow_batch is None:
            self._flow_batch = KeyBatch(self.flow_keys)
        return self._flow_batch

    def key_batch(self, sizes: np.ndarray | int | None = None) -> KeyBatch:
        """Materialize the stream as a :class:`~repro.flow.batch.KeyBatch`.

        The 64-bit halves every vectorized update path consumes are
        gathered per *flow* and broadcast to packets with one numpy
        indexing pass, so feeding a collector through the batch engine
        never splits keys packet-by-packet.

        Args:
            sizes: optional per-packet byte sizes carried on the batch —
                either an array of ``len(self)`` entries or a scalar
                byte size broadcast to every packet (the counterpart of
                :meth:`packets`' ``size`` argument).  Byte-tracking
                collectors consume them from their batched update path.
        """
        flow_lo, flow_hi = self.flow_batch().halves()
        if sizes is not None and np.ndim(sizes) == 0:
            sizes = np.full(len(self), int(sizes), dtype=np.int64)
        return KeyBatch(
            self.key_list(), flow_lo[self.order], flow_hi[self.order], sizes
        )

    def packets(self, size: int = DEFAULT_PACKET_BYTES) -> Iterator[Packet]:
        """Iterate :class:`~repro.flow.packet.Packet` objects in order."""
        flow_keys = self.flow_keys
        if self.timestamps is None:
            for idx in self.order:
                yield Packet(key=flow_keys[idx], timestamp=0.0, size=size)
        else:
            for idx, ts in zip(self.order, self.timestamps):
                yield Packet(key=flow_keys[idx], timestamp=float(ts), size=size)

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def flow_size_array(self) -> np.ndarray:
        """Per-flow packet counts, aligned with ``flow_keys``."""
        return np.bincount(self.order, minlength=self.num_flows)

    def true_sizes(self) -> dict[int, int]:
        """Ground-truth flow records: ``{flow key: packet count}``."""
        if self._sizes_cache is None:
            counts = self.flow_size_array()
            self._sizes_cache = {
                key: int(count)
                for key, count in zip(self.flow_keys, counts)
                if count > 0
            }
        return self._sizes_cache

    def stats(self) -> TraceStats:
        """Aggregate statistics (the paper's Table I row for this trace)."""
        return TraceStats.from_sizes(self.true_sizes())

    def cdf(self) -> list[tuple[int, float]]:
        """Cumulative flow-size distribution (paper Fig. 3)."""
        return size_cdf(self.true_sizes())

    # ------------------------------------------------------------------
    # Workload selection
    # ------------------------------------------------------------------
    def subset_flows(self, n_flows: int, seed: int | None = None) -> Trace:
        """Select ``n_flows`` flows and keep only their packets, in order.

        This implements the paper's trial construction: "we select a
        constant number of flows from each trace, and feed the packets of
        these flows to each algorithm".

        Args:
            n_flows: number of flows to keep; must not exceed
                :attr:`num_flows`.
            seed: if given, flows are chosen uniformly at random with
                this seed; otherwise the first ``n_flows`` flows in
                first-appearance order are kept.

        Returns:
            A new :class:`Trace` over the selected flows.
        """
        if n_flows > self.num_flows:
            raise ValueError(
                f"cannot select {n_flows} flows from a trace with {self.num_flows}"
            )
        if seed is None:
            chosen = self._first_seen_flows(n_flows)
        else:
            rng = np.random.default_rng(seed)
            chosen = rng.choice(self.num_flows, size=n_flows, replace=False)
        keep = np.zeros(self.num_flows, dtype=bool)
        keep[chosen] = True
        mask = keep[self.order]
        remap = -np.ones(self.num_flows, dtype=np.int64)
        remap[chosen] = np.arange(n_flows)
        new_order = remap[self.order[mask]]
        new_keys = [self.flow_keys[i] for i in np.asarray(chosen).tolist()]
        new_ts = None if self.timestamps is None else self.timestamps[mask]
        return Trace(new_keys, new_order, new_ts, name=f"{self.name}[{n_flows}f]")

    def _first_seen_flows(self, n_flows: int) -> np.ndarray:
        """Indices of the first ``n_flows`` flows in appearance order."""
        _, first_pos = np.unique(self.order, return_index=True)
        by_appearance = np.argsort(first_pos)
        appeared = np.asarray(_, dtype=np.int64)[by_appearance]
        if len(appeared) < n_flows:
            # Flows that never appear in `order` are appended in index order
            # so that the selection is still well-defined.
            missing = np.setdiff1d(np.arange(self.num_flows), appeared)
            appeared = np.concatenate([appeared, missing])
        return appeared[:n_flows]

    def slice_packets(self, start: int, end: int) -> Trace:
        """The packets in ``[start, end)`` as a new trace.

        Flows without packets in the window are dropped and the
        remaining flows re-indexed in window order — the epoch-slicing
        primitive behind :func:`repro.traces.replay.split_by_packets`
        and :func:`~repro.traces.replay.split_by_time`.
        """
        order = self.order[start:end]
        used = np.unique(order)
        remap = -np.ones(self.num_flows, dtype=np.int64)
        remap[used] = np.arange(len(used))
        keys = [self.flow_keys[i] for i in used.tolist()]
        ts = None if self.timestamps is None else self.timestamps[start:end]
        return Trace(keys, remap[order], ts, name=f"{self.name}[{start}:{end}]")

    def truncate_packets(self, n_packets: int) -> Trace:
        """Keep only the first ``n_packets`` packets."""
        if n_packets < 0:
            raise ValueError(f"n_packets must be >= 0, got {n_packets}")
        n = min(n_packets, len(self))
        order = self.order[:n]
        used = np.unique(order)
        remap = -np.ones(self.num_flows, dtype=np.int64)
        remap[used] = np.arange(len(used))
        new_keys = [self.flow_keys[i] for i in used.tolist()]
        new_ts = None if self.timestamps is None else self.timestamps[:n]
        return Trace(new_keys, remap[order], new_ts, name=f"{self.name}[{n}p]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(name={self.name!r}, flows={self.num_flows}, packets={len(self)})"
        )


def trace_from_keys(keys: list[int], name: str = "trace") -> Trace:
    """Build a :class:`Trace` from an explicit per-packet key sequence.

    Convenience for tests and for importing external packet streams.
    """
    index: dict[int, int] = {}
    order = np.empty(len(keys), dtype=np.int64)
    flow_keys: list[int] = []
    for i, key in enumerate(keys):
        pos = index.get(key)
        if pos is None:
            pos = len(flow_keys)
            index[key] = pos
            flow_keys.append(key)
        order[i] = pos
    return Trace(flow_keys, order, name=name)

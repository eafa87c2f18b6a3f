"""A pipeline/daemon sink that lands rotations in a flow store.

The live handoff from collection to analysis: attach
``{"kind": "store", "params": {"root": ..., "vantage": ...}}`` to a
pipeline or serve spec and every rotation the collector exports
becomes a leaf window of the store, degraded flags included, with the
merge hierarchy rebuilt at close — so ``repro-experiments query``
answers over the run the moment the daemon drains.

The sink buffers in memory and writes only at :meth:`close`, for the
same reason the durable archives finalize late (DESIGN §11): degraded
flags can arrive *after* a rotation was emitted (the supervisor learns
of a worker death when the next export limps in), and a failed run
must leave no half-stored windows — :meth:`abort` simply discards.
"""

from __future__ import annotations

from typing import Any

from repro.stream.records import RecordBatch
from repro.stream.sinks import Sink, keep_rotation


class FlowStoreSink(Sink):
    """Feed exported rotations into a :class:`~repro.flowdb.store.FlowStore`.

    Args:
        root: store directory (created on first close if missing).
        vantage: vantage name these rotations are recorded under.
        merge: also rebuild the vantage's parent hierarchy at close
            (on by default — a freshly served store should answer
            top-k from parents immediately).
    """

    kind = "store"

    def __init__(self, root: str, vantage: str = "default", merge: bool = True):
        self.root = str(root)
        self.vantage = str(vantage)
        self.merge = bool(merge)
        self.by_rotation: dict[int, RecordBatch] = {}
        self.windows: list[int] = []
        self._closed = False

    def spec_params(self) -> dict[str, Any]:
        return {"root": self.root, "vantage": self.vantage, "merge": self.merge}

    def emit(self, records: RecordBatch, rotation: int, now: float) -> None:
        keep_rotation(self.by_rotation, records, rotation)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if not self.by_rotation:
            return
        from repro.flowdb.store import FlowStore

        store = FlowStore(self.root)
        self.windows = store.ingest_rotations(
            self.vantage, self.by_rotation, self.degraded, append=True
        )
        if self.merge:
            store.merge_up(self.vantage)

    def abort(self) -> None:
        """Discard the buffered rotations — a crashed run stores nothing."""
        self._closed = True
        self.by_rotation.clear()

    def summary(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "vantage": self.vantage,
            "rotations": len(self.by_rotation),
            "windows": list(self.windows),
            **self._degraded_fields(),
        }

"""The flow-record currency of the streaming pipeline.

Every stage boundary in :mod:`repro.stream` — rotation policies
exporting from a collector, the serve worker handing exports to its
listener, sinks and the flow store receiving them — speaks
:class:`RecordBatch`: one export's records as aligned columns (key
halves, packet and byte counts, optional timing, the export reason),
built straight from a collector's table planes and pickled as a few
flat arrays.  Timeout expiry, epoch rotation and end-of-run drains all
produce this one shape.

:class:`FlowRecord` is the batch's scalar view (:meth:`RecordBatch.flows`)
for tests and text output, and :func:`merge_rows` is the one column
merge every consumer folds duplicate keys with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.flow.key import FLOW_KEY_MASK
from repro.hashing.mixers import key_groups, keys_from_halves, split_keys

#: Octet-count sentinel: the exporting collector measured no byte count
#: for the row.  Propagates through merges (any −1 in a group → −1).
UNMEASURED = -1

#: Export reasons a batch row can carry, by ``uint8`` code: ``""``
#: (unspecified), ``"inactive"`` / ``"active"`` (timeout expiry),
#: ``"epoch"`` / ``"interval"`` (rotation), ``"final"`` (end-of-stream
#: drain).
REASONS = ("", "inactive", "active", "epoch", "interval", "final")

@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One exported flow record: a row of a :class:`RecordBatch`.

    Attributes:
        key: packed 104-bit flow identifier.
        packets: recorded packet count at export time.
        first_seen: flow start timestamp (seconds); None when the
            exporting stage tracks no per-flow timing (a measured
            t=0.0 is timing, and is distinct from "untracked").
        last_seen: last packet timestamp (seconds); None likewise.
        reason: why the record was exported (one of :data:`REASONS`).
        octets: measured byte count, when the collector tracks real
            byte volumes (e.g. ``HashFlow(track_bytes=True)``); None
            means "not measured" and lets exporters fall back to their
            mean-packet-size estimate.
    """

    key: int
    packets: int
    first_seen: float | None = None
    last_seen: float | None = None
    reason: str = ""
    octets: int | None = None


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """One export's flow records as aligned columns.

    Rows keep their producer's order (a collector's flat cell order, a
    sweep's flow order); a key may repeat, and :func:`merge_rows` folds
    repeats.

    Attributes:
        lo: low 64 bits of each packed key (``uint64``).
        hi: bits 64 and up of each packed key (``uint64``).
        packets: packet count per row (``int64``).
        octets: measured byte count per row (``int64``) or
            :data:`UNMEASURED`; None at construction: all unmeasured.
        reason: export reason per row (``uint8`` codes into
            :data:`REASONS`); a name at construction stamps every row.
        first_seen: flow start per row (``float64`` seconds, NaN where
            untracked), or None when no row carries timing.
        last_seen: last packet per row, likewise; None exactly when
            ``first_seen`` is.
    """

    lo: np.ndarray
    hi: np.ndarray
    packets: np.ndarray
    octets: np.ndarray | None = None
    reason: np.ndarray | str = ""
    first_seen: np.ndarray | None = None
    last_seen: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.lo)
        if self.octets is None:
            object.__setattr__(self, "octets", np.full(n, UNMEASURED, dtype=np.int64))
        if isinstance(self.reason, str):
            code = REASONS.index(self.reason)
            object.__setattr__(self, "reason", np.full(n, code, dtype=np.uint8))
        if (self.first_seen is None) != (self.last_seen is None):
            raise ValueError("first_seen and last_seen are tracked together")

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def timed(self) -> bool:
        """Whether the batch carries timing columns."""
        return self.first_seen is not None

    @classmethod
    def from_records(cls, records) -> "RecordBatch":
        """Build from record objects exposing ``key``/``packets`` and
        optionally ``octets``/``first_seen``/``last_seen``/``reason``
        (:class:`FlowRecord`,
        :class:`~repro.export.netflow_v5.NetFlowV5Record`).

        Raises:
            ValueError: if a key is negative or wider than 104 bits.
        """
        rows = list(records)
        keys = [int(row.key) for row in rows]
        if keys and (min(keys) < 0 or max(keys) > FLOW_KEY_MASK):
            raise ValueError(
                f"key out of range for 104-bit flow ID: {min(keys)}..{max(keys)}"
            )

        def column(name, missing, dtype):
            values = (getattr(row, name, None) for row in rows)
            return np.array([missing if v is None else v for v in values], dtype)

        timed = any(
            getattr(row, "first_seen", None) is not None
            or getattr(row, "last_seen", None) is not None
            for row in rows
        )
        reasons = [REASONS.index(getattr(row, "reason", "")) for row in rows]
        return cls(
            *split_keys(keys),
            np.array([row.packets for row in rows], dtype=np.int64),
            column("octets", UNMEASURED, np.int64),
            np.array(reasons, dtype=np.uint8),
            column("first_seen", math.nan, np.float64) if timed else None,
            column("last_seen", math.nan, np.float64) if timed else None,
        )

    @classmethod
    def coerce(cls, records) -> "RecordBatch":
        """A batch as is; anything else through :meth:`from_records`."""
        return records if isinstance(records, cls) else cls.from_records(records)

    @classmethod
    def concat(cls, batches) -> "RecordBatch":
        """Every batch's rows, in order; a batch without timing gives
        NaN (untracked) rows when another one has it."""
        batches = [batch for batch in batches if len(batch)]
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.from_records(())

        def join(name):
            columns = [getattr(batch, name) for batch in batches]
            return np.concatenate(
                [
                    np.full(len(batch), math.nan) if column is None else column
                    for batch, column in zip(batches, columns)
                ]
            )

        columns = ("lo", "hi", "packets", "octets", "reason")
        if any(batch.timed for batch in batches):
            columns += ("first_seen", "last_seen")
        return cls(*map(join, columns))

    def keys(self) -> list[int]:
        """Packed Python-int flow keys, in row order."""
        return keys_from_halves(self.lo, self.hi)

    def flows(self) -> list[FlowRecord]:
        """The scalar view: one :class:`FlowRecord` per row, in order."""
        untimed = [None] * len(self)

        def seconds(column):
            if column is None:
                return untimed
            return [None if math.isnan(t) else t for t in column.tolist()]

        return list(
            map(
                FlowRecord,
                self.keys(),
                self.packets.tolist(),
                seconds(self.first_seen),
                seconds(self.last_seen),
                [REASONS[code] for code in self.reason.tolist()],
                [None if o == UNMEASURED else o for o in self.octets.tolist()],
            )
        )


def merge_rows(lo, hi, packets, octets, mode="sum", first_seen=None, last_seen=None):
    """The one column merge: fold every row of a flow key into one.

    Rows group by packed key (:func:`~repro.hashing.mixers.key_groups`)
    and each group folds with ``np.ufunc.reduceat``: packets and
    octets by ``mode`` — ``"sum"`` for disjoint shares of a flow
    (re-exports, windows of one vantage, shards) or ``"max"`` for
    several sightings of the same packets (vantages on one path, the
    two semantics of :mod:`repro.netwide.merge`) — where any
    :data:`UNMEASURED` octets poison the group to :data:`UNMEASURED`;
    timing spans the earliest ``first_seen`` and the latest
    ``last_seen``, ignoring NaN (untracked) rows.

    Returns:
        ``(lo, hi, packets, octets, first_seen, last_seen)``, keys
        ascending and distinct; a timing column is None when it was
        given as None.
    """
    order, starts = key_groups(lo, hi)
    fold = np.add if mode == "sum" else np.maximum
    # Each column is sorted and folded before the next one is sorted, so
    # one sorted copy at a time is alive beside the caller's inputs.
    merged_packets = fold.reduceat(packets[order], starts)
    octets = octets[order]
    merged_octets = fold.reduceat(octets, starts)
    # The group minimum is UNMEASURED exactly when one member is.
    merged_octets[np.minimum.reduceat(octets, starts) == UNMEASURED] = UNMEASURED
    first = order[starts]
    return (
        lo[first],
        hi[first],
        merged_packets,
        merged_octets,
        None if first_seen is None else np.fmin.reduceat(first_seen[order], starts),
        None if last_seen is None else np.fmax.reduceat(last_seen[order], starts),
    )


def merge_flow_records(records) -> dict[int, int]:
    """Sum a :class:`RecordBatch` (or an iterable of record objects)
    into ``{key: packets}``, keys ascending.

    Flows exported more than once (timeout re-exports, epoch spans)
    accumulate, exactly as a downstream NetFlow collector would sum
    them.
    """
    batch = RecordBatch.coerce(records)
    lo, hi, packets, *_ = merge_rows(batch.lo, batch.hi, batch.packets, batch.octets)
    return dict(zip(keys_from_halves(lo, hi), packets.tolist()))

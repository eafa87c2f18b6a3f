"""Lock-minimal shared-memory packet rings (DESIGN §10).

One :class:`PacketRing` is the single-producer / single-consumer
conduit between the serve daemon's listener process and one worker
process.  Everything lives in one named segment from
:mod:`repro.shm.segments` (so the registry's atexit + resource-tracker
guards cover crash cleanup for free):

* a small ``int64`` header plane — capacity, the producer's *head*
  (packets ever published), the consumer's *tail* (packets ever
  consumed), a drop counter, and a stop flag;
* four payload planes of ``capacity`` slots each — key halves
  (``uint64`` lo/hi), per-packet byte sizes (``int64``), and
  timestamps (``float64``).

Counters are monotonic; a slot index is ``counter & (capacity - 1)``
(capacity is a power of two), so full/empty are just ``head - tail``.
The seqlock-style discipline is *payload before publish*: the producer
writes every payload slot, then stores the new head; the consumer
reads the head, copies the payload **out**, then stores the new tail.
Each 8-byte counter is written by exactly one side and aligned, so
loads/stores are single machine words; the publish ordering relies on
total-store-order (x86) or the interpreter's sequencing of the
separate buffer writes.  Neither side ever takes a lock in the data
path; the only blocking is the *caller's* back-pressure policy looping
on :meth:`try_push`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.shm.segments import (
    Segment,
    attach_segment,
    carve,
    create_segment,
    layout_bytes,
)

#: Default ring capacity in packet slots (power of two).
DEFAULT_RING_SLOTS = 65_536

#: Header int64 slots: capacity, head, tail, drops, stop, reserved.
_HEADER_SLOTS = 8
_CAPACITY, _HEAD, _TAIL, _DROPS, _STOP = range(5)


def _layout(capacity: int):
    return [
        (_HEADER_SLOTS, np.dtype(np.int64)),
        (capacity, np.dtype(np.uint64)),   # key low halves
        (capacity, np.dtype(np.uint64)),   # key high halves
        (capacity, np.dtype(np.int64)),    # per-packet byte sizes
        (capacity, np.dtype(np.float64)),  # per-packet timestamps
    ]


class PacketRing:
    """One SPSC packet ring over a named shared segment.

    Build with :meth:`create` (producer side, owns the segment) or
    :meth:`attach` (consumer side, by name).  The object itself is
    role-agnostic — discipline (one pusher, one popper) is the
    caller's contract.
    """

    __slots__ = ("segment", "capacity", "_header", "_lo", "_hi", "_sizes", "_ts")

    def __init__(self, segment: Segment):
        header = carve(segment, [(_HEADER_SLOTS, np.dtype(np.int64))])[0]
        capacity = int(header[_CAPACITY])
        self.segment = segment
        self.capacity = capacity
        self._header, self._lo, self._hi, self._sizes, self._ts = carve(
            segment, _layout(capacity)
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, slots: int = DEFAULT_RING_SLOTS, label: str = "ring") -> "PacketRing":
        """Create an owned ring of ``slots`` packet slots (power of 2)."""
        slots = int(slots)
        if slots < 2 or slots & (slots - 1):
            raise ValueError(
                f"ring slots must be a power of two >= 2, got {slots}"
            )
        segment = create_segment(layout_bytes(_layout(slots)), label=label)
        header = carve(segment, [(_HEADER_SLOTS, np.dtype(np.int64))])[0]
        header[:] = 0
        header[_CAPACITY] = slots
        return cls(segment)

    @classmethod
    def attach(cls, name: str) -> "PacketRing":
        """Attach to an existing ring by segment name (consumer side)."""
        return cls(attach_segment(name))

    @property
    def name(self) -> str:
        return self.segment.name

    def unlink(self) -> None:
        """Remove the segment name (owner side; mappings stay valid)."""
        self.segment.unlink()

    # ------------------------------------------------------------------
    # Introspection (either side)
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Packets currently published but not yet consumed."""
        return int(self._header[_HEAD] - self._header[_TAIL])

    @property
    def consumed(self) -> int:
        """Packets ever consumed (the monotonic tail counter).

        Supervision derives a dead worker incarnation's exact *fed*
        count from tail deltas — the tail only moves after a payload
        is copied out, so everything before it reached the feeder.
        """
        return int(self._header[_TAIL])

    @property
    def drops(self) -> int:
        """Packets dropped at the ring door (back-pressure ``drop``)."""
        return int(self._header[_DROPS])

    def add_drops(self, n: int) -> None:
        """Count ``n`` packets dropped by the producer (producer only)."""
        self._header[_DROPS] += int(n)

    def request_stop(self) -> None:
        """Raise the stop flag: consume what remains, then exit."""
        self._header[_STOP] = 1

    def stopped(self) -> bool:
        return bool(self._header[_STOP])

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def try_push(self, lo, hi, sizes, timestamps, start: int = 0) -> int:
        """Publish as many packets from ``start`` on as fit right now.

        Payload slots are written before the head moves, so the
        consumer never observes a published-but-unwritten packet.

        Returns:
            Packets accepted (0 when the ring is full) — the caller
            loops (``block``) or counts drops (``drop``) on the rest.
        """
        head = int(self._header[_HEAD])
        free = self.capacity - (head - int(self._header[_TAIL]))
        take = min(free, len(lo) - start)
        if take <= 0:
            return 0
        index = head & (self.capacity - 1)
        first = min(take, self.capacity - index)
        stop = start + first
        self._lo[index : index + first] = lo[start:stop]
        self._hi[index : index + first] = hi[start:stop]
        self._sizes[index : index + first] = sizes[start:stop]
        self._ts[index : index + first] = timestamps[start:stop]
        if take > first:  # wraparound: the rest lands at slot 0
            rest = take - first
            self._lo[:rest] = lo[stop : stop + rest]
            self._hi[:rest] = hi[stop : stop + rest]
            self._sizes[:rest] = sizes[stop : stop + rest]
            self._ts[:rest] = timestamps[stop : stop + rest]
        self._header[_HEAD] = head + take
        return take

    def push(
        self,
        lo,
        hi,
        sizes,
        timestamps,
        poll_s: float = 0.0002,
        should_abort=None,
    ) -> int:
        """Blocking publish of a whole batch (back-pressure ``block``).

        Loops on :meth:`try_push` until everything is in, sleeping
        ``poll_s`` between full-ring attempts; ``should_abort()`` (e.g.
        "is the consumer still alive") breaks the loop early.

        Returns:
            Packets published (less than the batch only on abort).
        """
        n = len(lo)
        done = 0
        while done < n:
            done += self.try_push(lo, hi, sizes, timestamps, start=done)
            if done < n:
                if should_abort is not None and should_abort():
                    break
                time.sleep(poll_s)
        return done

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def pop(self, max_n: int):
        """Consume up to ``max_n`` published packets.

        The payload is **copied out** before the tail moves (the
        producer may overwrite the slots immediately after), so the
        returned arrays are private to the caller.

        Returns:
            ``(lo, hi, sizes, timestamps)`` arrays, or None when the
            ring is empty.
        """
        tail = int(self._header[_TAIL])
        available = int(self._header[_HEAD]) - tail
        take = min(available, int(max_n))
        if take <= 0:
            return None
        index = tail & (self.capacity - 1)
        first = min(take, self.capacity - index)
        if take > first:
            rest = take - first
            lo = np.concatenate([self._lo[index:], self._lo[:rest]])
            hi = np.concatenate([self._hi[index:], self._hi[:rest]])
            sizes = np.concatenate([self._sizes[index:], self._sizes[:rest]])
            ts = np.concatenate([self._ts[index:], self._ts[:rest]])
        else:
            lo = self._lo[index : index + take].copy()
            hi = self._hi[index : index + take].copy()
            sizes = self._sizes[index : index + take].copy()
            ts = self._ts[index : index + take].copy()
        self._header[_TAIL] = tail + take
        return lo, hi, sizes, ts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketRing({self.name!r}, {self.capacity} slots, "
            f"{self.occupancy()} occupied)"
        )

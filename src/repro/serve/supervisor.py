"""Worker supervision for the serve daemon (DESIGN §11).

The original daemon treated any worker death as a hard fault: tear the
whole service down, lose everything in flight.  A long-lived collector
(SENSOR runs for months) needs crash *containment* instead — this
module wraps the daemon's worker fleet in a :class:`Supervisor` that:

* **detects** a dead worker through the same pump-then-liveness guard
  the fail-fast path used (a clean exit can race the pipe drain, so
  one more pump decides);
* **quarantines** the dead worker's ring: the parent pops everything
  the dead incarnation left unconsumed, so no packet is ever silently
  stranded in shared memory;
* **accounts exactly**: the ring tail only moves after a payload is
  copied out, so ``tail_at_death - tail_base`` is the dead
  incarnation's precise *fed* count, and the drained residue is either
  replayed to the respawn (``on_worker_loss="replay"``: lossless) or
  counted as ``lost`` (``"drop"``: bounded latency) — the identity
  ``fed + drops + lost == received`` stays exact through any number of
  restarts;
* **flags degradation**: the window a worker died inside loses that
  worker's un-exported collector state, so its global rotation index
  is flagged *degraded* in every sink's metadata rather than being
  silently incomplete (drop mode also flags the windows the lost
  residue would have landed in, conservatively);
* **respawns** with capped exponential backoff under a sliding-window
  restart budget (``max_restarts`` within ``restart_window`` seconds,
  per worker); budget exhaustion — and the default budget of zero —
  reproduces the original hard-fault behavior exactly, message
  included.

Rotation indices are made global here: each worker incarnation's
feeder numbers its exports from zero, so the supervisor offsets them
by the incarnation's ``base_rotations`` (the exports its predecessors
already produced).  Under interval rotation the window grid is
absolute, so a respawned worker re-enters the same grid and the global
indices of fault-free windows line up with the offline run's.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

import numpy as np

from repro.serve.ring import PacketRing
from repro.serve.spec import ServeSpec

#: First respawn backoff; doubles per restart inside the window.
RESPAWN_BACKOFF_S = 0.05

#: Ceiling on the exponential respawn backoff.
RESPAWN_BACKOFF_CAP_S = 2.0

#: Chunk size for draining a dead worker's ring.
_DRAIN_CHUNK = 65_536


class WorkerSlot:
    """One worker position: its ring, its live incarnation, and the
    accounting state that survives incarnations."""

    __slots__ = (
        "index", "ring", "proc", "conn", "incarnation", "done",
        "tail_base", "base_rotations", "exports_current", "fed_prior",
        "restart_times", "respawn_at", "death_at", "restart_entry",
        "meters",
    )

    def __init__(self, index: int, ring: PacketRing):
        self.index = index
        self.ring = ring
        self.proc = None
        self.conn = None
        self.incarnation = 0
        self.done = False
        #: Ring tail at this incarnation's start — its fed count is
        #: the tail's advance past this.
        self.tail_base = 0
        #: Global rotation index of this incarnation's export 0.
        self.base_rotations = 0
        #: Exports seen from the current incarnation so far.
        self.exports_current = 0
        #: Exact fed total of every previous incarnation.
        self.fed_prior = 0
        self.restart_times: list[float] = []
        self.respawn_at: float | None = None
        self.death_at: float | None = None
        self.restart_entry: dict[str, Any] | None = None
        self.meters: dict[str, Any] = {}

    @property
    def fed(self) -> int:
        """Packets fed across every incarnation of this worker, exact."""
        return self.fed_prior + (self.ring.consumed - self.tail_base)


class Supervisor:
    """The daemon's worker fleet: spawn, watch, respawn, account.

    Args:
        spec: the frozen :class:`~repro.serve.spec.ServeSpec` — worker
            respawns rebuild their pipeline from it, never from live
            state.
        ctx: the multiprocessing context (fork where available).
        worker_faults: canonical fault entries forwarded to every
            worker (:mod:`repro.faults` kill/stall hooks).
        on_export: ``(worker, global_rotation, now, records)`` — the
            daemon fans each export out to its sinks.
        on_degraded: ``(global_rotation)`` — the daemon flags the
            rotation in every sink's metadata.
        say: the daemon's stderr line printer.
    """

    def __init__(
        self,
        spec: ServeSpec,
        ctx,
        worker_faults: tuple = (),
        on_export: Callable[[int, int, float, Any], None] = lambda *a: None,
        on_degraded: Callable[[int], None] = lambda r: None,
        say: Callable[[str], None] = lambda line: None,
    ):
        self.spec = spec
        self.ctx = ctx
        self.worker_faults = tuple(worker_faults)
        self.on_export = on_export
        self.on_degraded = on_degraded
        self.say = say
        self._pipeline = spec.pipeline_spec.to_dict()
        rotation = self._pipeline["rotation"]
        self._window = (
            float(rotation["params"]["window"])
            if rotation["kind"] == "interval"
            else None
        )
        self.slots: list[WorkerSlot] = []
        #: Packets discarded from dead rings (``on_worker_loss="drop"``).
        self.lost = 0
        #: One record per respawn (worker, incarnation, exitcode,
        #: resident, disposition, backoff_s, recovery_ms).
        self.restarts: list[dict[str, Any]] = []
        #: Global rotation indices whose content a worker loss degraded.
        self.degraded: set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Create every ring, then spawn every worker."""
        spec = self.spec
        for w in range(spec.workers):
            ring = PacketRing.create(spec.ring_slots, label=f"serve-w{w}")
            self.slots.append(WorkerSlot(w, ring))
        for slot in self.slots:
            self._spawn(slot)

    def _spawn(self, slot: WorkerSlot) -> None:
        from repro.serve.daemon import _worker_main

        parent_conn, child_conn = self.ctx.Pipe(duplex=False)
        name = f"serve-worker-{slot.index}"
        if slot.incarnation:
            name = f"{name}-r{slot.incarnation}"
        proc = self.ctx.Process(
            target=_worker_main,
            args=(
                slot.index,
                self.spec.workers,
                slot.ring.name,
                self._pipeline,
                self.spec.stats_interval,
                child_conn,
                slot.incarnation,
                self.worker_faults,
            ),
            name=name,
            daemon=True,
        )
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn

    @property
    def rings(self) -> list[PacketRing]:
        return [slot.ring for slot in self.slots]

    @property
    def conns(self) -> list:
        """Live parent-side pipe ends (for the daemon's idle select)."""
        return [slot.conn for slot in self.slots if slot.conn is not None]

    def all_done(self) -> bool:
        return all(slot.done for slot in self.slots)

    @property
    def fed(self) -> int:
        """Packets fed across every worker and incarnation, exact."""
        return sum(slot.fed for slot in self.slots)

    @property
    def meters(self) -> dict[int, dict]:
        return {slot.index: slot.meters for slot in self.slots}

    def rotation_total(self) -> int:
        """Rotation sweeps across workers and incarnations.

        A dead incarnation's sweeps are its export count (each export
        is one sweep); the live incarnation reports through its meters.
        """
        return sum(
            slot.base_rotations + slot.meters.get("rotations", 0)
            for slot in self.slots
        )

    # ------------------------------------------------------------------
    # Message pump
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Drain pending worker messages (never blocks)."""
        for slot in self.slots:
            self._pump_slot(slot)

    def _pump_slot(self, slot: WorkerSlot) -> None:
        conn = slot.conn
        if conn is None:
            return
        while True:
            try:
                if not conn.poll():
                    break
                message = conn.recv()
            except (EOFError, OSError):
                break  # liveness is checked against the process
            kind = message[0]
            if kind == "export":
                _, _, rotation_index, now, records = message
                if rotation_index + 1 > slot.exports_current:
                    slot.exports_current = rotation_index + 1
                self.on_export(
                    slot.index,
                    slot.base_rotations + rotation_index,
                    now,
                    records,
                )
            elif kind == "stats":
                slot.meters = message[2]
            elif kind == "done":
                slot.meters = message[2]
                slot.done = True

    # ------------------------------------------------------------------
    # Death detection and recovery
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Pump, detect deaths, progress pending respawns.

        Raises:
            RuntimeError: a worker died with no restart budget left
                (the original hard fault, message included).
        """
        self.pump()
        now = time.monotonic()
        for slot in self.slots:
            if slot.respawn_at is not None:
                if now >= slot.respawn_at:
                    slot.respawn_at = None
                    self._spawn(slot)
                    self.say(
                        f"serve: worker {slot.index} respawned "
                        f"(incarnation {slot.incarnation})"
                    )
                continue
            if slot.death_at is not None and slot.proc is not None:
                # Recovery point: the respawn consumed its first packet
                # (or finished a drain with nothing left to consume).
                if slot.ring.consumed > slot.tail_base or slot.done:
                    slot.restart_entry["recovery_ms"] = (
                        (now - slot.death_at) * 1000.0
                    )
                    slot.death_at = None
            if slot.done or slot.proc is None or slot.proc.is_alive():
                continue
            # A clean exit can land between the pump above and the
            # liveness check; once the process is observed dead its
            # messages are all in the pipe, so one more drain decides.
            self._pump_slot(slot)
            if slot.done:
                continue
            self._on_death(slot)

    def _on_death(self, slot: WorkerSlot) -> None:
        now = time.monotonic()
        exitcode = slot.proc.exitcode
        spec = self.spec
        slot.restart_times = [
            t for t in slot.restart_times if t >= now - spec.restart_window
        ]
        if len(slot.restart_times) >= spec.max_restarts:
            suffix = ""
            if spec.max_restarts:
                suffix = (
                    f" (restart budget exhausted: {len(slot.restart_times)} "
                    f"restarts in {spec.restart_window:g}s)"
                )
            raise RuntimeError(
                f"serve worker {slot.index} died (exit code {exitcode}) "
                f"before draining its ring{suffix}"
            )
        slot.restart_times.append(now)
        slot.death_at = now
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - best effort
            pass
        slot.conn = None
        # Exact fed for the dead incarnation: the tail only moves after
        # a payload is copied out — capture it BEFORE the drain below
        # advances it further.
        tail_at_death = slot.ring.consumed
        slot.fed_prior += tail_at_death - slot.tail_base
        # Quarantine the ring: pop everything the dead incarnation
        # left resident, so nothing is stranded in shared memory.
        resident = self._drain_ring(slot.ring)
        n_resident = 0 if resident is None else len(resident[0])
        slot.tail_base = slot.ring.consumed
        # The in-progress window's un-exported collector state died
        # with the worker: its global index is degraded.
        in_progress = slot.base_rotations + slot.exports_current
        self._flag(in_progress)
        slot.base_rotations = in_progress
        slot.exports_current = 0
        disposition = spec.on_worker_loss
        if n_resident:
            if disposition == "replay":
                # The ring was just emptied, so the residue always
                # fits; tail_base already points past the drain, so
                # replayed packets count toward the respawn's fed
                # exactly once.
                lo, hi, sizes, ts = resident
                slot.ring.try_push(lo, hi, sizes, ts)
            else:
                self.lost += n_resident
                self._flag_lost_windows(slot, resident[3])
        delay = min(
            RESPAWN_BACKOFF_S * (2 ** (len(slot.restart_times) - 1)),
            RESPAWN_BACKOFF_CAP_S,
        )
        slot.incarnation += 1
        slot.done = False
        slot.respawn_at = now + delay
        slot.restart_entry = {
            "worker": slot.index,
            "incarnation": slot.incarnation,
            "exitcode": exitcode,
            "resident": n_resident,
            "disposition": disposition,
            "backoff_s": delay,
            "recovery_ms": None,
        }
        self.restarts.append(slot.restart_entry)
        self.say(
            f"serve: worker {slot.index} died (exit code {exitcode}); "
            f"{n_resident} ring-resident packets "
            f"{'replayed' if disposition == 'replay' else 'dropped as lost'}, "
            f"rotation {in_progress} degraded, respawning in {delay:.2f}s"
        )

    @staticmethod
    def _drain_ring(ring: PacketRing):
        """Pop everything published-but-unconsumed; None when empty."""
        parts = []
        while True:
            item = ring.pop(_DRAIN_CHUNK)
            if item is None:
                break
            parts.append(item)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return tuple(
            np.concatenate([part[i] for part in parts]) for i in range(4)
        )

    def _flag(self, rotation: int) -> None:
        if rotation not in self.degraded:
            self.degraded.add(rotation)
            self.on_degraded(rotation)

    def _flag_lost_windows(self, slot: WorkerSlot, timestamps) -> None:
        """Drop mode under interval rotation: the discarded residue
        spans wall-clock windows whose future exports will be missing
        those packets — flag each (conservatively: empty windows are
        skipped by the feeder, so indices may over-flag, never under
        by more than the skip)."""
        if self._window is None or not len(timestamps):
            self._flag(slot.base_rotations)
            return
        windows = {int(ts // self._window) for ts in timestamps.tolist()}
        for i in range(len(windows)):
            self._flag(slot.base_rotations + i)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Raise every ring's stop flag (persists across respawns)."""
        for slot in self.slots:
            slot.ring.request_stop()

    def shutdown(self) -> None:
        """Best-effort teardown: kill processes, close pipes, unlink
        ring segments (the daemon's ``finally`` path)."""
        for slot in self.slots:
            proc = slot.proc
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for slot in self.slots:
            if slot.conn is not None:
                try:
                    slot.conn.close()
                except OSError:  # pragma: no cover
                    pass
                slot.conn = None
        for slot in self.slots:
            slot.ring.unlink()


__all__ = ["Supervisor", "WorkerSlot", "RESPAWN_BACKOFF_S", "RESPAWN_BACKOFF_CAP_S"]

"""Rotation policies: when and what a standing collector exports.

Operational flow collection never reports once at the end of a run — it
*rotates*: tables are exported and freed on a schedule so long-lived
measurement keeps absorbing new flows.  Three schedules cover it —
packet-count epochs, wall-clock windows, and RFC 3954 active/inactive
expiry — behind one :class:`RotationPolicy` protocol, driven by
:class:`~repro.stream.pipeline.StreamFeeder` (offline through
:class:`~repro.stream.pipeline.Pipeline`, live in the serve worker).

A policy answers four questions:

* :meth:`~RotationPolicy.admit` — how many of the next pending packets
  may be fed before a rotation check is due (so a batched feed never
  overruns a rotation boundary);
* :meth:`~RotationPolicy.note` — account a sub-batch that was just fed;
* :meth:`~RotationPolicy.due` — is a rotation sweep pending;
* :meth:`~RotationPolicy.collect` / :meth:`~RotationPolicy.drain` —
  export the due records (evicting or resetting collector state) as
  one :class:`~repro.stream.records.RecordBatch`.

Policies are spec-described (``{"kind": ..., "params": ...}``,
JSON-native) so a :class:`~repro.stream.spec.PipelineSpec` can nest
them next to the collector's :class:`~repro.specs.CollectorSpec`.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from typing import Any, Mapping

import numpy as np

from repro.flow.batch import KeyBatch
from repro.specs import SpecError
from repro.stream.records import FlowRecord, RecordBatch


def positive_count(name: str, value) -> int:
    """``value`` as a count: an integer >= 1 (bools refused).

    A fractional count would truncate — to 0 below 1, which stalls the
    feed loop (``admit`` returns 0 while ``due`` stays true).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def positive_finite(name: str, value) -> float:
    """``value`` as a finite real > 0 (bools refused).

    NaN compares false against every bound, so an unchecked NaN timeout
    or clock rate silently expires nothing.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


def export_and_reset(collector, reason: str) -> RecordBatch:
    """Gather a collector's records as one batch, then reset its tables
    in place.

    The records come from the collector's column gather
    (``record_columns``: key halves, packets, measured octets), every
    row stamped ``reason``.  The cost meter's cumulative counters
    survive the reset (rotation is control-plane work; the dataplane
    cost history must not vanish with the tables); every epoch-style
    rotation and drain shares it.
    """
    exported = RecordBatch(*collector.record_columns(), reason)
    meter = collector.meter
    packets = meter.packets
    hashes, reads, writes = meter.hashes, meter.reads, meter.writes
    collector.reset()
    meter.packets = packets
    meter.hashes, meter.reads, meter.writes = hashes, reads, writes
    return exported


class RotationPolicy(ABC):
    """When to export records from a standing collector, and which.

    Subclasses implement the batched streaming protocol driven by
    :class:`~repro.stream.pipeline.StreamFeeder` (``admit`` → feed →
    ``note`` → ``due`` → ``collect``).  All state a policy keeps is
    control-plane state (packet counters, per-flow timestamps); the
    collector's tables are only touched through ``record_columns()``/
    ``reset()``/``evict()`` during a sweep.
    """

    #: Registry kind name (``"count"`` / ``"interval"`` / ``"timeout"``).
    kind: str = "rotation"

    @abstractmethod
    def spec_params(self) -> dict[str, Any]:
        """JSON-native constructor params reproducing this policy."""

    @property
    def spec(self) -> dict[str, Any]:
        """The ``{"kind": ..., "params": ...}`` description."""
        return {"kind": self.kind, "params": self.spec_params()}

    @abstractmethod
    def reset(self) -> None:
        """Clear all rotation state."""

    @abstractmethod
    def admit(self, n: int, timestamps: np.ndarray | None) -> int:
        """How many of the next ``n`` pending packets may be fed before
        a rotation check.

        Args:
            n: packets pending in the current chunk.
            timestamps: their arrival times (length >= ``n``), or None
                for an untimestamped stream.

        Returns:
            A count in ``[0, n]``.  Returning 0 promises that
            :meth:`due` is True (the pipeline must rotate before
            feeding anything further).
        """

    @abstractmethod
    def note(self, batch: KeyBatch, timestamps: np.ndarray | None) -> None:
        """Account a sub-batch that was just fed to the collector."""

    @abstractmethod
    def due(self) -> bool:
        """Whether a rotation sweep is pending."""

    @abstractmethod
    def collect(self, collector) -> RecordBatch:
        """Run the due rotation: export (and free) the due records.

        Args:
            collector: the fed collector; epoch-style policies export
                everything and reset it, expiry-style policies evict
                per flow.  Measured byte counts are read before the
                sweep frees the cells they live in.
        """

    def drain(self, collector) -> RecordBatch:
        """Export everything still resident (end-of-stream).

        Default: one final export-and-reset with reason ``"final"``.
        """
        exported = export_and_reset(collector, "final")
        self.reset()
        return exported


class CountRotation(RotationPolicy):
    """Rotate after every ``epoch_packets`` packets.

    A fixed packet budget per epoch, export-all at the boundary: each
    rotation's records equal those of a fresh collector fed only that
    epoch (:func:`repro.traces.replay.split_by_packets`).

    Args:
        epoch_packets: packets per epoch (an integer >= 1).
    """

    kind = "count"

    def __init__(self, epoch_packets: int):
        self.epoch_packets = positive_count("epoch_packets", epoch_packets)
        self._in_epoch = 0

    def spec_params(self) -> dict[str, Any]:
        return {"epoch_packets": self.epoch_packets}

    def reset(self) -> None:
        self._in_epoch = 0

    def admit(self, n: int, timestamps: np.ndarray | None) -> int:
        return min(n, self.epoch_packets - self._in_epoch)

    def note(self, batch: KeyBatch, timestamps: np.ndarray | None) -> None:
        self._in_epoch += len(batch)

    def due(self) -> bool:
        return self._in_epoch >= self.epoch_packets

    def collect(self, collector) -> RecordBatch:
        exported = export_and_reset(collector, "epoch")
        self._in_epoch = 0
        return exported


class IntervalRotation(RotationPolicy):
    """Rotate at fixed wall-clock window boundaries.

    The streaming form of :func:`repro.traces.replay.split_by_time`:
    windows are ``[k*window, (k+1)*window)`` anchored at the first
    packet's timestamp, and empty windows are skipped (no empty
    exports), matching the splitter's behaviour.

    Args:
        window: window length in seconds (finite, > 0).
    """

    kind = "interval"

    def __init__(self, window: float):
        self.window = positive_finite("window", window)
        self._epoch_end: float | None = None
        self._due = False

    def spec_params(self) -> dict[str, Any]:
        return {"window": self.window}

    def reset(self) -> None:
        self._epoch_end = None
        self._due = False

    def admit(self, n: int, timestamps: np.ndarray | None) -> int:
        if timestamps is None:
            raise ValueError("interval rotation needs packet timestamps")
        first = float(timestamps[0])
        if self._epoch_end is None:
            self._epoch_end = (first // self.window + 1.0) * self.window
        if first >= self._epoch_end:
            # Advance past empty windows in one go; the pending export
            # belongs to the window(s) that just closed.
            while first >= self._epoch_end:
                self._epoch_end += self.window
            self._due = True
            return 0
        return int(np.searchsorted(timestamps[:n], self._epoch_end, side="left"))

    def note(self, batch: KeyBatch, timestamps: np.ndarray | None) -> None:
        pass  # window state advances in admit; nothing per-batch

    def due(self) -> bool:
        return self._due

    def collect(self, collector) -> RecordBatch:
        exported = export_and_reset(collector, "interval")
        self._due = False
        return exported


class TimeoutRotation(RotationPolicy):
    """RFC 3954 active/inactive timeout expiry.

    Per-flow first/last-seen timestamps live control-plane side, an
    expiry sweep runs every ``expiry_interval`` packets, and a sweep
    exports (then evicts) every flow idle past ``inactive_timeout`` or
    alive past ``active_timeout``.  Requires a collector with a
    per-flow ``evict`` method (e.g. HashFlow).

    Args:
        inactive_timeout: seconds of silence before export (NetFlow
            default: 15s; finite, > 0).
        active_timeout: maximum record lifetime before a mid-flow
            export (NetFlow default: 30min; finite, >= the inactive
            timeout).
        expiry_interval: packets between sweeps (an integer >= 1).
    """

    kind = "timeout"

    def __init__(
        self,
        inactive_timeout: float = 15.0,
        active_timeout: float = 1800.0,
        expiry_interval: int = 1024,
    ):
        self.inactive_timeout = positive_finite("inactive_timeout", inactive_timeout)
        self.active_timeout = positive_finite("active_timeout", active_timeout)
        if self.active_timeout < self.inactive_timeout:
            raise ValueError("active timeout must be >= inactive timeout")
        self.expiry_interval = positive_count("expiry_interval", expiry_interval)
        self._first_seen: dict[int, float] = {}
        self._last_seen: dict[int, float] = {}
        self._now = 0.0
        self._since_sweep = 0

    def spec_params(self) -> dict[str, Any]:
        return {
            "inactive_timeout": self.inactive_timeout,
            "active_timeout": self.active_timeout,
            "expiry_interval": self.expiry_interval,
        }

    def reset(self) -> None:
        self._first_seen.clear()
        self._last_seen.clear()
        self._now = 0.0
        self._since_sweep = 0

    def _sweep(self, collector, now: float) -> RecordBatch:
        """Export and evict every flow past a timeout at clock ``now``.

        A byte-tracking collector's count is probed per swept flow
        (``byte_query``) before the eviction frees its cell.
        """
        self._since_sweep = 0
        measured = getattr(collector, "track_bytes", False) and collector.byte_query
        exported: list[FlowRecord] = []
        for key, last in list(self._last_seen.items()):
            first = self._first_seen[key]
            if now - last >= self.inactive_timeout:
                reason = "inactive"
            elif now - first >= self.active_timeout:
                reason = "active"
            else:
                continue
            count = collector.query(key)
            if count > 0:
                octets = measured(key) if measured else None
                exported.append(FlowRecord(key, count, first, last, reason, octets))
            collector.evict(key)
            del self._first_seen[key]
            del self._last_seen[key]
        return RecordBatch.from_records(exported)

    def admit(self, n: int, timestamps: np.ndarray | None) -> int:
        return min(n, self.expiry_interval - self._since_sweep)

    def note(self, batch: KeyBatch, timestamps: np.ndarray | None) -> None:
        if timestamps is None:
            raise ValueError("timeout rotation needs packet timestamps")
        first_seen = self._first_seen
        last_seen = self._last_seen
        times = timestamps.tolist()
        for key, ts in zip(batch.keys, times):
            if key not in first_seen:
                first_seen[key] = ts
            last_seen[key] = ts
        # Timestamps are non-decreasing within a trace, so the last
        # packet of the sub-batch carries the latest clock.
        self._now = max(self._now, times[-1])
        self._since_sweep += len(batch)

    def due(self) -> bool:
        return self._since_sweep >= self.expiry_interval

    def collect(self, collector) -> RecordBatch:
        return self._sweep(collector, self._now)

    def drain(self, collector) -> RecordBatch:
        """One sweep with a clock late enough to expire every flow."""
        horizon = self._now + self.active_timeout + self.inactive_timeout
        exported = self._sweep(collector, horizon)
        self.reset()
        return exported


#: Registered rotation kinds.
ROTATIONS: dict[str, type[RotationPolicy]] = {
    CountRotation.kind: CountRotation,
    IntervalRotation.kind: IntervalRotation,
    TimeoutRotation.kind: TimeoutRotation,
}


def build_rotation(spec: Mapping[str, Any] | RotationPolicy | None):
    """Build a rotation policy from its spec dict (passthrough for
    instances and None).

    Raises:
        ValueError: unknown kind, or a param value the policy refuses.
        SpecError: params the policy does not take.
    """
    if spec is None or isinstance(spec, RotationPolicy):
        return spec
    kind = spec.get("kind") if isinstance(spec, Mapping) else None
    if kind not in ROTATIONS:
        raise ValueError(
            f"unknown rotation kind {kind!r}; available: {', '.join(sorted(ROTATIONS))}"
        )
    params = dict(spec.get("params", {}))
    try:
        return ROTATIONS[kind](**params)
    except TypeError as exc:
        raise SpecError(f"cannot build {kind!r} rotation from params {params}: {exc}") from exc

"""Declarative serve-daemon descriptions.

A :class:`ServeSpec` is to the live daemon what
:class:`~repro.stream.spec.PipelineSpec` is to an offline run: a
frozen, JSON-round-trippable value naming everything the daemon needs —
the nested pipeline (whose source must be the live ``udp`` kind), the
worker count, the per-worker ring geometry, the back-pressure policy at
the ring door, and the stats cadence.  Runtime knobs that do not change
*what* is collected (``--duration``, a ``--listen`` override) stay out
of the spec on purpose: the same spec file describes the same daemon
whether it runs for ten seconds under CI or indefinitely under systemd.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.serve.ring import DEFAULT_RING_SLOTS
from repro.specs import SpecError, build
from repro.stream.pipeline import check_rotation
from repro.stream.rotation import build_rotation
from repro.stream.spec import PipelineSpec

#: Allowed back-pressure policies at the ring door (DESIGN §10).
BACKPRESSURE_MODES = ("block", "drop")

#: Worker-loss dispositions for ring-resident packets (DESIGN §11):
#: ``auto`` resolves by back-pressure mode (block → replay, drop →
#: drop), ``replay`` re-feeds drained packets to the respawned worker,
#: ``drop`` counts them as ``lost``.
WORKER_LOSS_MODES = ("auto", "replay", "drop")

_FIELDS = {
    "pipeline",
    "workers",
    "ring_slots",
    "backpressure",
    "stats_interval",
    "max_restarts",
    "restart_window",
    "on_worker_loss",
    "faults",
}


@dataclass(frozen=True, eq=False)
class ServeSpec:
    """A frozen, JSON-round-trippable serve-daemon description.

    Attributes:
        pipeline: nested :class:`~repro.stream.spec.PipelineSpec` dict;
            its source stage must be the live ``udp`` kind.
        workers: collector worker processes.  With more than one
            worker the collector must be the ``sharded`` kind with at
            least one shard per worker — each worker owns the shards
            ``s % workers == worker`` so any flow key has exactly one
            home process and merged exports stay exact.
        ring_slots: packet slots per worker ring (power of two).
        backpressure: what the listener does when a worker's ring is
            full — ``"block"`` (lossless, UDP socket buffer absorbs
            the stall) or ``"drop"`` (shed at the ring door, counted
            in the ring's drop counter and the stats line).
        stats_interval: seconds between periodic stats lines.
        max_restarts: worker respawns allowed within
            ``restart_window`` before a death becomes a hard fault.
            The default 0 preserves the original fail-fast behavior:
            any worker death tears the daemon down.
        restart_window: sliding window (seconds) the restart budget
            counts over.
        on_worker_loss: disposition of packets resident in a dead
            worker's ring — ``"replay"`` (drain and re-feed to the
            respawn: lossless), ``"drop"`` (count as ``lost``:
            bounded-latency), or ``"auto"`` (resolve by back-pressure
            mode: block → replay, drop → drop; stored resolved).
        faults: deterministic fault-injection plan entries
            (:mod:`repro.faults` dicts) baked into the spec — merged
            with any ``REPRO_FAULTS`` environment plan at run time.
    """

    pipeline: Mapping[str, Any]
    workers: int = 1
    ring_slots: int = DEFAULT_RING_SLOTS
    backpressure: str = "block"
    stats_interval: float = 5.0
    max_restarts: int = 0
    restart_window: float = 30.0
    on_worker_loss: str = "auto"
    faults: tuple = ()

    def __post_init__(self):
        # Nested validation (and error messages) are PipelineSpec's own.
        pipeline = PipelineSpec.from_dict(self.pipeline)
        if pipeline.source["kind"] != "udp":
            raise SpecError(
                "a serve spec needs a live source: pipeline.source.kind "
                f"must be 'udp', got {pipeline.source['kind']!r} "
                "(offline sources run via Pipeline.run)"
            )
        object.__setattr__(self, "pipeline", pipeline.to_dict())
        # Build once here what every worker builds, so a collector or
        # pairing the workers cannot build or drive fails at load,
        # before a daemon binds or spawns (the spec is frozen: one
        # check covers every daemon and respawn built from it).
        try:
            check_rotation(build(pipeline.collector), build_rotation(pipeline.rotation))
        except ValueError as exc:
            raise SpecError(f"invalid serve spec: {exc}") from exc
        workers = int(self.workers)
        if workers < 1:
            raise SpecError(f"workers must be >= 1, got {workers}")
        if workers > 1:
            collector = pipeline.collector
            if collector["kind"] != "sharded":
                raise SpecError(
                    f"{workers} workers need a 'sharded' collector so each "
                    f"flow key has one home process, got kind "
                    f"{collector['kind']!r}"
                )
            n_shards = int(collector["params"]["n_shards"])
            if n_shards < workers:
                raise SpecError(
                    f"{workers} workers need at least that many shards, "
                    f"got n_shards={n_shards}"
                )
        object.__setattr__(self, "workers", workers)
        ring_slots = int(self.ring_slots)
        if ring_slots < 2 or ring_slots & (ring_slots - 1):
            raise SpecError(
                f"ring_slots must be a power of two >= 2, got {ring_slots}"
            )
        object.__setattr__(self, "ring_slots", ring_slots)
        if self.backpressure not in BACKPRESSURE_MODES:
            raise SpecError(
                f"backpressure must be one of {BACKPRESSURE_MODES}, "
                f"got {self.backpressure!r}"
            )
        if not self.stats_interval > 0:
            raise SpecError(
                f"stats_interval must be positive, got {self.stats_interval}"
            )
        object.__setattr__(self, "stats_interval", float(self.stats_interval))
        max_restarts = int(self.max_restarts)
        if max_restarts < 0:
            raise SpecError(f"max_restarts must be >= 0, got {max_restarts}")
        object.__setattr__(self, "max_restarts", max_restarts)
        if not self.restart_window > 0:
            raise SpecError(
                f"restart_window must be positive, got {self.restart_window}"
            )
        object.__setattr__(self, "restart_window", float(self.restart_window))
        if self.on_worker_loss not in WORKER_LOSS_MODES:
            raise SpecError(
                f"on_worker_loss must be one of {WORKER_LOSS_MODES}, "
                f"got {self.on_worker_loss!r}"
            )
        if self.on_worker_loss == "auto":
            resolved = "replay" if self.backpressure == "block" else "drop"
            object.__setattr__(self, "on_worker_loss", resolved)
        from repro.faults import FaultSpecError, _validated

        try:
            faults = tuple(_validated(entry) for entry in self.faults)
        except FaultSpecError as exc:
            raise SpecError(f"invalid serve spec faults: {exc}") from exc
        object.__setattr__(self, "faults", faults)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServeSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    def __repr__(self) -> str:
        return (
            f"ServeSpec({self.pipeline_spec!r}, workers={self.workers}, "
            f"ring_slots={self.ring_slots}, backpressure={self.backpressure!r})"
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def pipeline_spec(self) -> PipelineSpec:
        """The nested pipeline as a :class:`PipelineSpec` value."""
        return PipelineSpec.from_dict(self.pipeline)

    @property
    def listen(self) -> tuple[str, int]:
        """The ``(host, port)`` the udp source asks to bind."""
        params = self.pipeline["source"]["params"]
        return str(params.get("host", "127.0.0.1")), int(params.get("port", 2055))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, JSON-native throughout."""
        return {
            "pipeline": dict(self.pipeline),
            "workers": self.workers,
            "ring_slots": self.ring_slots,
            "backpressure": self.backpressure,
            "stats_interval": self.stats_interval,
            "max_restarts": self.max_restarts,
            "restart_window": self.restart_window,
            "on_worker_loss": self.on_worker_loss,
            "faults": [dict(f) for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeSpec":
        """Inverse of :meth:`to_dict`.

        Raises:
            SpecError: if the mapping is not of the canonical shape.
        """
        if not isinstance(data, Mapping) or "pipeline" not in data:
            raise SpecError(f"not a serve spec mapping: {data!r}")
        extra = set(data) - _FIELDS
        if extra:
            raise SpecError(f"unknown serve spec fields {sorted(extra)} in {data!r}")
        return cls(**{k: data[k] for k in _FIELDS & set(data)})

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ServeSpec":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"invalid serve spec JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Derivation / construction
    # ------------------------------------------------------------------
    def with_listen(self, host: str, port: int) -> "ServeSpec":
        """A new spec bound to a different listen address."""
        pipeline = self.pipeline_spec
        source = {
            "kind": "udp",
            "params": {**pipeline.source["params"], "host": host, "port": int(port)},
        }
        return replace(self, pipeline=pipeline.with_stages(source=source).to_dict())

    def build(self):
        """Build a runnable :class:`~repro.serve.daemon.ServeDaemon`."""
        from repro.serve.daemon import ServeDaemon

        return ServeDaemon(self)


def load_serve_spec(path) -> ServeSpec:
    """Load a :class:`ServeSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return ServeSpec.from_json(fh.read())


def save_serve_spec(spec: ServeSpec, path) -> None:
    """Write a :class:`ServeSpec` to a JSON file (pretty-printed)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json(indent=2) + "\n")

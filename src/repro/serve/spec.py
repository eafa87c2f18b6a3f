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

from dataclasses import dataclass, replace
from typing import Any, ClassVar, Mapping

from repro.serve.ring import DEFAULT_RING_SLOTS
from repro.specs import Spec, SpecError, build, positive_count, positive_finite
from repro.stream.pipeline import check_rotation
from repro.stream.rotation import build_rotation
from repro.stream.sinks import SINKS
from repro.stream.sources import udp_address
from repro.stream.spec import PipelineSpec

#: Allowed back-pressure policies at the ring door (DESIGN §10).
BACKPRESSURE_MODES = ("block", "drop")

#: Worker-loss dispositions for ring-resident packets (DESIGN §11):
#: ``auto`` resolves by back-pressure mode (block → replay, drop →
#: drop), ``replay`` re-feeds drained packets to the respawned worker,
#: ``drop`` counts them as ``lost``.
WORKER_LOSS_MODES = ("auto", "replay", "drop")


@dataclass(frozen=True, eq=False)
class ServeSpec(Spec):
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

    what: ClassVar[str] = "serve spec"

    def _validate(self):
        # Nested validation (and error messages) are PipelineSpec's own.
        pipeline = PipelineSpec.from_dict(self.pipeline)
        if pipeline.source["kind"] != "udp":
            raise SpecError(
                "a serve spec needs a live source: pipeline.source.kind "
                f"must be 'udp', got {pipeline.source['kind']!r} "
                "(offline sources run via Pipeline.run)"
            )
        unknown = [s["kind"] for s in pipeline.sinks if s["kind"] not in SINKS]
        if unknown:
            raise SpecError(
                f"unknown sink kinds {unknown}; available: {', '.join(sorted(SINKS))}"
            )
        # Check here the listen address and build once the collector and
        # rotation every worker builds (sinks are only looked up above:
        # they create directories), so an address, collector or pairing
        # the daemon cannot use fails at load, before a daemon binds or
        # spawns (the spec is frozen: one check covers every daemon and
        # respawn built from it).
        udp_address(**pipeline.source["params"])
        collector = build(pipeline.collector)
        check_rotation(collector, build_rotation(pipeline.rotation))
        workers = positive_count("workers", self.workers)
        if workers > 1:
            if pipeline.collector["kind"] != "sharded":
                raise SpecError(
                    f"{workers} workers need a 'sharded' collector so each "
                    f"flow key has one home process, got kind "
                    f"{pipeline.collector['kind']!r}"
                )
            if collector.n_shards < workers:
                raise SpecError(
                    f"{workers} workers need at least that many shards, "
                    f"got n_shards={collector.n_shards}"
                )
        ring_slots = positive_count("ring_slots", self.ring_slots, minimum=0)
        if ring_slots < 2 or ring_slots & (ring_slots - 1):
            raise SpecError(
                f"ring_slots must be a power of two >= 2, got {ring_slots}"
            )
        if self.backpressure not in BACKPRESSURE_MODES:
            raise SpecError(
                f"backpressure must be one of {BACKPRESSURE_MODES}, "
                f"got {self.backpressure!r}"
            )
        if self.on_worker_loss not in WORKER_LOSS_MODES:
            raise SpecError(
                f"on_worker_loss must be one of {WORKER_LOSS_MODES}, "
                f"got {self.on_worker_loss!r}"
            )
        on_worker_loss = self.on_worker_loss
        if on_worker_loss == "auto":
            on_worker_loss = "replay" if self.backpressure == "block" else "drop"
        from repro.faults import FaultSpecError, _validated

        try:
            if not isinstance(self.faults, (list, tuple)):
                raise FaultSpecError(f"a list is needed, got {self.faults!r}")
            faults = tuple(_validated(entry) for entry in self.faults)
        except FaultSpecError as exc:
            raise SpecError(f"invalid serve spec faults: {exc}") from exc
        self._set(
            pipeline=pipeline.to_dict(),
            workers=workers,
            ring_slots=ring_slots,
            stats_interval=positive_finite("stats_interval", self.stats_interval),
            max_restarts=positive_count("max_restarts", self.max_restarts, minimum=0),
            restart_window=positive_finite("restart_window", self.restart_window),
            on_worker_loss=on_worker_loss,
            faults=faults,
        )

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
        return udp_address(**self.pipeline["source"]["params"])

    # ------------------------------------------------------------------
    # Derivation / construction
    # ------------------------------------------------------------------
    def with_listen(self, host: str, port: int) -> "ServeSpec":
        """A new spec bound to a different listen address."""
        params = {**self.pipeline["source"]["params"], "host": host, "port": port}
        source = {"kind": "udp", "params": params}
        return replace(self, pipeline={**self.pipeline, "source": source})

    def build(self):
        """Build a runnable :class:`~repro.serve.daemon.ServeDaemon`."""
        from repro.serve.daemon import ServeDaemon

        return ServeDaemon(self)


"""Declarative pipeline descriptions.

A :class:`PipelineSpec` is the whole-pipeline analogue of
:class:`~repro.specs.CollectorSpec`: a frozen, JSON-round-trippable
value naming every stage of a streaming pipeline — Source → Collector →
RotationPolicy → Sinks — plus the batching parameters.  Because it is
pure data, a pipeline can be written to a config file, shipped to a
worker process and rebuilt bit-identically, and reseeded
deterministically for multi-instance deployments.

The collector stage nests a plain :class:`CollectorSpec` dict (the
currency of :mod:`repro.specs`); source, rotation, and sink stages use
the same ``{"kind": ..., "params": ...}`` shape against the stage
registries in :mod:`repro.stream.sources` /
:mod:`~repro.stream.rotation` / :mod:`~repro.stream.sinks`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar, Mapping

from repro.flow.batch import DEFAULT_CHUNK_SIZE
from repro.flow.packet import DEFAULT_PACKET_BYTES
from repro.specs import (
    CollectorSpec,
    Spec,
    SpecError,
    positive_count,
    positive_finite,
    reseeded,
)
from repro.specs.spec import canonical_params
from repro.stream.rotation import build_rotation

#: Synthetic clock rate (packets/second) for untimestamped sources.
DEFAULT_PACKET_RATE = 10_000.0


def _canonical_stage(stage: Mapping[str, Any], what: str) -> dict[str, Any]:
    """Validate and JSON-normalize one ``{"kind", "params"}`` stage."""
    if not isinstance(stage, Mapping) or not isinstance(stage.get("kind"), str):
        raise SpecError(f"{what} stage must be a {{'kind', 'params'}} mapping, "
                        f"got {stage!r}")
    extra = sorted(map(str, set(stage) - {"kind", "params"}))
    if extra:
        raise SpecError(f"unknown {what} stage fields {extra} in {stage!r}")
    params = canonical_params(stage.get("params", {}), f"{what} stage")
    return {"kind": stage["kind"], "params": params}


@dataclass(frozen=True, eq=False)
class PipelineSpec(Spec):
    """A frozen, JSON-round-trippable streaming-pipeline description.

    Attributes:
        source: source stage spec (see :mod:`repro.stream.sources`).
        collector: nested :class:`~repro.specs.CollectorSpec` dict.
        rotation: rotation stage spec, or None for a single
            end-of-stream export (see :mod:`repro.stream.rotation`).
        sinks: sink stage specs, in emit order (see
            :mod:`repro.stream.sinks`).
        chunk_size: packets per batched feed chunk (DESIGN §2/§4).
        packet_rate: synthetic clock rate (packets/second) applied when
            the source trace carries no timestamps, so time-based
            rotation stays well-defined and deterministic.
        packet_bytes: per-packet byte size fed to byte-tracking
            collectors (sources carry no per-packet sizes).
    """

    source: Mapping[str, Any]
    collector: Mapping[str, Any]
    rotation: Mapping[str, Any] | None = None
    sinks: tuple = ()
    chunk_size: int = DEFAULT_CHUNK_SIZE
    packet_rate: float = DEFAULT_PACKET_RATE
    packet_bytes: int = DEFAULT_PACKET_BYTES

    what: ClassVar[str] = "pipeline spec"

    def _validate(self):
        # Collector validation goes through CollectorSpec so the nested
        # shape rules (and error messages) are the registry's own.
        collector = CollectorSpec.from_dict(self.collector)
        rotation = self.rotation
        if rotation is not None:
            rotation = _canonical_stage(rotation, "rotation")
        if not isinstance(self.sinks, (list, tuple)):
            raise SpecError(f"pipeline sinks must be a list, got {self.sinks!r}")
        self._set(
            source=_canonical_stage(self.source, "source"),
            collector=collector.to_dict(),
            rotation=rotation,
            sinks=tuple(_canonical_stage(s, "sink") for s in self.sinks),
            # Values that would stall the feed loop or expire nothing
            # are refused here, at load, before any process starts.
            chunk_size=positive_count("chunk_size", self.chunk_size),
            packet_rate=positive_finite("packet_rate", self.packet_rate),
            packet_bytes=positive_count("packet_bytes", self.packet_bytes),
        )
        build_rotation(rotation)

    def __repr__(self) -> str:
        rotation = "none" if self.rotation is None else self.rotation["kind"]
        sinks = ",".join(s["kind"] for s in self.sinks) or "none"
        return (
            f"PipelineSpec({self.source['kind']} -> {self.collector['kind']} "
            f"-> {rotation} -> [{sinks}])"
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_stages(self, **overrides: Any) -> "PipelineSpec":
        """A new spec with some fields replaced (``source=``,
        ``rotation=``, ``sinks=``, ...)."""
        return replace(self, **overrides)

    def reseed(self, salt: int | str) -> "PipelineSpec":
        """A new spec whose *collector* hash seed is derived from
        ``salt`` (deterministically, via
        :func:`repro.specs.registry.reseeded`).

        The source is left untouched: reseeding produces an
        independent measurement instance of the *same workload*, which
        is what multi-switch / multi-epoch deployments need.
        """
        collector = reseeded(CollectorSpec.from_dict(self.collector), salt)
        return replace(self, collector=collector.to_dict())

    # ------------------------------------------------------------------
    # Construction / dispatch
    # ------------------------------------------------------------------
    def build(self):
        """Build a runnable :class:`~repro.stream.pipeline.Pipeline`."""
        from repro.stream.pipeline import Pipeline

        return Pipeline.from_spec(self)


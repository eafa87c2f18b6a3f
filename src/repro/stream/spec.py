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

import json
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.flow.batch import DEFAULT_CHUNK_SIZE
from repro.flow.packet import DEFAULT_PACKET_BYTES
from repro.specs import CollectorSpec, SpecError, reseeded
from repro.stream.rotation import build_rotation, positive_count, positive_finite

#: Synthetic clock rate (packets/second) for untimestamped sources.
DEFAULT_PACKET_RATE = 10_000.0

_FIELDS = {
    "source", "collector", "rotation", "sinks",
    "chunk_size", "packet_rate", "packet_bytes",
}


def _canonical_stage(stage: Mapping[str, Any], what: str) -> dict[str, Any]:
    """Validate and JSON-normalize one ``{"kind", "params"}`` stage."""
    if not isinstance(stage, Mapping) or not isinstance(stage.get("kind"), str):
        raise SpecError(f"{what} stage must be a {{'kind', 'params'}} mapping, "
                        f"got {stage!r}")
    extra = set(stage) - {"kind", "params"}
    if extra:
        raise SpecError(f"unknown {what} stage fields {sorted(extra)} in {stage!r}")
    params = stage.get("params", {})
    if not isinstance(params, Mapping):
        raise SpecError(f"{what} stage params must be a mapping, got {params!r}")
    try:
        params = json.loads(json.dumps(dict(params), sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what} stage params are not JSON-serializable: {exc}") from exc
    return {"kind": stage["kind"], "params": params}


@dataclass(frozen=True, eq=False)
class PipelineSpec:
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

    def __post_init__(self):
        object.__setattr__(self, "source", _canonical_stage(self.source, "source"))
        # Collector validation goes through CollectorSpec so the nested
        # shape rules (and error messages) are the registry's own.
        collector = CollectorSpec.from_dict(self.collector)
        object.__setattr__(self, "collector", collector.to_dict())
        rotation = self.rotation
        if rotation is not None:
            rotation = _canonical_stage(rotation, "rotation")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(
            self,
            "sinks",
            tuple(_canonical_stage(s, "sink") for s in self.sinks),
        )
        # Values that would stall the feed loop or expire nothing are
        # refused here, at load, before any process starts.
        try:
            build_rotation(rotation)
            chunk_size = positive_count("chunk_size", self.chunk_size)
            packet_rate = positive_finite("packet_rate", self.packet_rate)
            packet_bytes = positive_count("packet_bytes", self.packet_bytes)
        except ValueError as exc:
            raise SpecError(f"invalid pipeline spec: {exc}") from exc
        object.__setattr__(self, "chunk_size", chunk_size)
        object.__setattr__(self, "packet_rate", packet_rate)
        object.__setattr__(self, "packet_bytes", packet_bytes)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PipelineSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    def __repr__(self) -> str:
        rotation = "none" if self.rotation is None else self.rotation["kind"]
        sinks = ",".join(s["kind"] for s in self.sinks) or "none"
        return (
            f"PipelineSpec({self.source['kind']} -> {self.collector['kind']} "
            f"-> {rotation} -> [{sinks}])"
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, JSON-native throughout."""
        return {
            "source": dict(self.source),
            "collector": dict(self.collector),
            "rotation": None if self.rotation is None else dict(self.rotation),
            "sinks": [dict(s) for s in self.sinks],
            "chunk_size": self.chunk_size,
            "packet_rate": self.packet_rate,
            "packet_bytes": self.packet_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        """Inverse of :meth:`to_dict`.

        Raises:
            SpecError: if the mapping is not of the canonical shape.
        """
        if not isinstance(data, Mapping) or "source" not in data or "collector" not in data:
            raise SpecError(f"not a pipeline spec mapping: {data!r}")
        extra = set(data) - _FIELDS
        if extra:
            raise SpecError(f"unknown pipeline spec fields {sorted(extra)} in {data!r}")
        kwargs = {k: data[k] for k in _FIELDS & set(data)}
        kwargs["sinks"] = tuple(kwargs.get("sinks", ()))
        return cls(**kwargs)

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"invalid pipeline spec JSON: {exc}") from exc
        return cls.from_dict(data)

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


def load_pipeline_spec(path) -> PipelineSpec:
    """Load a :class:`PipelineSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return PipelineSpec.from_json(fh.read())


def save_pipeline_spec(spec: PipelineSpec, path) -> None:
    """Write a :class:`PipelineSpec` to a JSON file (pretty-printed)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json(indent=2) + "\n")

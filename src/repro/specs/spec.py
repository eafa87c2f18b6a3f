"""Declarative collector descriptions.

A :class:`CollectorSpec` is the data half of the registry API
(:mod:`repro.specs.registry`): a collector *kind* plus the constructor
parameters that reproduce it.  Specs are frozen, hashable, comparable,
and round-trip through JSON, so a collector configuration can be named
in a config file, shipped to another shard/epoch/process, and rebuilt
bit-identically — ``build(collector.spec)`` is the contract every
registered collector honours.

The sharded wrapper nests its per-shard collector's spec under its
``"collector"`` param as a plain ``{"kind": ..., "params": ...}`` dict,
keeping the whole structure JSON-native.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping


class SpecError(TypeError):
    """A collector spec could not be produced, parsed, or built."""


def _canonical(params: Mapping[str, Any]) -> dict[str, Any]:
    """Deep-copy params through JSON, validating serializability.

    The round trip both detaches the spec from caller-owned mutable
    dicts and normalizes containers (tuples become lists), so equal
    specs always serialize to equal JSON.
    """
    try:
        return json.loads(json.dumps(dict(params), sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"spec params are not JSON-serializable: {exc}") from exc


@dataclass(frozen=True, eq=False)
class CollectorSpec:
    """A frozen, JSON-round-trippable collector description.

    Attributes:
        kind: registered collector kind (see
            :func:`repro.specs.registry.available_kinds`).
        params: constructor parameters; values are JSON scalars or
            a nested spec dict for the sharded wrapper.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise SpecError(f"spec kind must be a non-empty string, got {self.kind!r}")
        object.__setattr__(self, "params", _canonical(self.params))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CollectorSpec):
            return NotImplemented
        return self.kind == other.kind and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.kind, json.dumps(self.params, sort_keys=True)))

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"CollectorSpec({self.kind}: {args})"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form: ``{"kind": ..., "params": {...}}``."""
        return {"kind": self.kind, "params": _canonical(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CollectorSpec":
        """Inverse of :meth:`to_dict`.

        Raises:
            SpecError: if the mapping is not of the canonical shape.
        """
        if not isinstance(data, Mapping) or "kind" not in data:
            raise SpecError(f"not a collector spec mapping: {data!r}")
        extra = set(data) - {"kind", "params"}
        if extra:
            raise SpecError(f"unknown spec fields {sorted(extra)} in {data!r}")
        return cls(kind=data["kind"], params=data.get("params", {}))

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CollectorSpec":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"invalid spec JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_params(self, **overrides: Any) -> "CollectorSpec":
        """A new spec with some params replaced (or added)."""
        merged = dict(self.params)
        merged.update(overrides)
        return CollectorSpec(self.kind, merged)

    def reseed(self, salt: int | str) -> "CollectorSpec":
        """A new spec whose hash seed is derived from ``salt``.

        The derivation is deterministic (same spec + same salt → same
        seed), which is what lets shards, switches, and epochs rebuild
        their exact collector from the deployment's one prototype spec.
        Seed-free kinds are returned unchanged; the sharded wrapper
        reseeds its nested collector too.
        """
        from repro.specs.registry import reseeded

        return reseeded(self, salt)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self):
        """Build a fresh collector from this spec.

        Bound to the frozen spec, this method doubles as a zero-argument
        factory: ``spec.build`` is what
        :meth:`~repro.sketches.base.FlowCollector.fresh_factory`
        returns.
        """
        from repro.specs.registry import build

        return build(self)


def load_spec(path) -> CollectorSpec:
    """Load a :class:`CollectorSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return CollectorSpec.from_json(fh.read())


def save_spec(spec: CollectorSpec, path) -> None:
    """Write a :class:`CollectorSpec` to a JSON file (pretty-printed)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json(indent=2) + "\n")

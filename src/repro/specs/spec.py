"""Declarative descriptions, and the one codec every spec type shares.

:class:`Spec` is the codec: a frozen dataclass that inherits it gets
``to_dict``/``from_dict`` over its fields, ``to_json``/``from_json``,
``load(path)``/``save(path)``, and identity (``==``/``hash``) by
canonical JSON.  Five spec types ride on it — :class:`CollectorSpec`
here, :class:`~repro.stream.spec.PipelineSpec`,
:class:`~repro.serve.spec.ServeSpec`,
:class:`~repro.flowdb.query.QuerySpec` and
:class:`~repro.flowdb.store.StoreSpec` — and each keeps only its field
checks (``_validate``) and its own derivations.

The refusal rule: outside data enters through ``from_dict`` (or
``from_json``/``load``), and an unknown field, a wrong type or an
out-of-range value raises :class:`SpecError` naming the spec.  Values
are never coerced on the way in — ``1.7`` or ``"1"`` for a count is
refused, not truncated — so a spec that loads holds exactly the values
it was given (normalized only where the field says so).

A :class:`CollectorSpec` is the data half of the registry API
(:mod:`repro.specs.registry`): a collector *kind* plus the constructor
parameters that reproduce it — ``build(collector.spec)`` is the
contract every registered collector honours.  The sharded wrapper
nests its per-shard collector's spec under its ``"collector"`` param as
a plain ``{"kind": ..., "params": ...}`` dict, keeping the whole
structure JSON-native.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, ClassVar, Mapping


class SpecError(TypeError):
    """A spec could not be produced, parsed, or built."""


def positive_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as a count: an integer >= ``minimum`` (bools, floats
    and strings refused).

    A fractional count would truncate — to 0 below 1, which stalls the
    feed loop (``admit`` returns 0 while ``due`` stays true).

    Raises:
        ValueError: for anything else.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def positive_finite(name: str, value) -> float:
    """``value`` as a finite real > 0 that a float holds exactly (bools
    and strings refused).

    NaN compares false against every bound, so an unchecked NaN timeout
    or clock rate silently expires nothing.

    Raises:
        ValueError: for anything else.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number) and number > 0 and number == value:
            return number
    raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def canonical_params(params: Mapping[str, Any], what: str) -> dict[str, Any]:
    """Deep-copy the params mapping of ``what`` through JSON, validating
    it.

    The round trip both detaches the spec from caller-owned mutable
    dicts and normalizes containers (tuples become lists), so equal
    specs always serialize to equal JSON.
    """
    if not isinstance(params, Mapping):
        raise SpecError(f"{what} params must be a mapping, got {params!r}")
    try:
        return json.loads(json.dumps(dict(params), sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what} params are not JSON-serializable: {exc}") from exc


def build_stage(registry: Mapping[str, Any], spec: Mapping[str, Any], what: str):
    """Build one ``{"kind": ..., "params": ...}`` pipeline stage from
    its registry (rotation policies, sinks, sources).

    Raises:
        ValueError: unknown kind, or a param value the constructor
            refuses.
        SpecError: params the constructor does not take.
    """
    kind = spec.get("kind") if isinstance(spec, Mapping) else None
    if not isinstance(kind, str) or kind not in registry:
        raise ValueError(
            f"unknown {what} kind {kind!r}; available: {', '.join(sorted(registry))}"
        )
    params = dict(spec.get("params", {}))
    try:
        return registry[kind](**params)
    except TypeError as exc:
        raise SpecError(
            f"cannot build {kind!r} {what} from params {params}: {exc}"
        ) from exc


def _plain(value):
    """A deep copy of a JSON-native value, with tuples as lists."""
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class Spec:
    """The codec base of the frozen spec dataclasses.

    A subclass is a ``@dataclass(frozen=True, eq=False)`` whose fields
    hold JSON-native values; it names itself in :attr:`what` and checks
    (and normalizes) its fields in :meth:`_validate`.  Any
    ``TypeError``/``ValueError``/``ArithmeticError`` a check raises
    leaves construction as a :class:`SpecError` naming the spec,
    whether the spec was built directly or loaded.
    """

    #: How error messages name the spec type ("serve spec", ...).
    what: ClassVar[str] = "spec"

    def __post_init__(self):
        try:
            self._validate()
        except (TypeError, ValueError, ArithmeticError) as exc:
            # Every refusal names the spec (a nested spec's names both).
            if isinstance(exc, SpecError) and self.what in str(exc):
                raise
            raise SpecError(f"invalid {self.what}: {exc}") from exc

    def _validate(self) -> None:
        """Check and normalize the fields (``self._set`` to normalize)."""

    def _set(self, **values: Any) -> None:
        """Normalize fields of the frozen instance."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Identity: canonical JSON
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __hash__(self) -> int:
        return hash(self.to_json())

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form over the fields, JSON-native throughout (a
        deep copy: tuples become lists)."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Inverse of :meth:`to_dict`; the one way in for outside data.

        Raises:
            SpecError: not a mapping, an unknown or missing field, or a
                field value the spec refuses.
        """
        if not isinstance(data, Mapping):
            raise SpecError(f"not a {cls.what} mapping: {data!r}")
        names = [f.name for f in fields(cls)]
        unknown = sorted(map(str, set(data) - set(names)))
        if unknown:
            raise SpecError(f"unknown {cls.what} fields {unknown}")
        missing = [
            f.name
            for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING
            and f.name not in data
        ]
        if missing:
            raise SpecError(f"{cls.what} lacks required fields {missing}")
        return cls(**data)

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a canonical (key-sorted) JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str | bytes):
        """Parse a JSON document produced by :meth:`to_json`.

        Raises:
            SpecError: for invalid JSON or a refused spec.
        """
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise SpecError(f"invalid {cls.what} JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path):
        """Load a spec from a JSON file.

        Raises:
            SpecError: for a malformed file.
            OSError: for an unreadable one.
        """
        return cls.from_json(Path(path).read_bytes())

    def save(self, path) -> None:
        """Write the spec to a JSON file (pretty-printed)."""
        Path(path).write_text(self.to_json(indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True, eq=False)
class CollectorSpec(Spec):
    """A frozen, JSON-round-trippable collector description.

    Attributes:
        kind: registered collector kind (see
            :func:`repro.specs.registry.available_kinds`).
        params: constructor parameters; values are JSON scalars or
            a nested spec dict for the sharded wrapper.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    what: ClassVar[str] = "collector spec"

    def _validate(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise SpecError(f"spec kind must be a non-empty string, got {self.kind!r}")
        self._set(params=canonical_params(self.params, self.what))

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"CollectorSpec({self.kind}: {args})"

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

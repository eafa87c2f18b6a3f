"""The global collector registry: kinds, builders, sizing rules.

Every collector the harness evaluates registers itself under a short
*kind* name (``@register("hashflow")`` on the class).  The registry
then offers one construction path for the whole codebase:

* :func:`build` — from a kind name, a :class:`CollectorSpec`, a spec
  dict, or a JSON file's contents, optionally sized to a memory budget
  through the kind's registered sizing rule;
* :func:`available_kinds` — what can be built;
* :func:`reseeded` / :func:`derive_seed` — deterministic per-shard /
  per-switch / per-epoch seed derivation from one prototype spec.

Collector modules import this module (to register); this module never
imports them at load time — :func:`_ensure_registered` pulls them in
lazily on the first registry query, so there are no import cycles.
"""

from __future__ import annotations

import importlib
import inspect
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.hashing.mixers import MASK64, splitmix64
from repro.specs.spec import CollectorSpec, SpecError

#: Modules that register collectors or sizing rules, imported lazily.
_REGISTRATION_MODULES = (
    "repro.specs.sizing",
    "repro.core.hashflow",
    "repro.core.adaptive",
    "repro.sketches.hashpipe",
    "repro.sketches.elastic",
    "repro.sketches.flowradar",
    "repro.sketches.exact",
    "repro.sketches.sampled",
    "repro.sketches.spacesaving",
    "repro.sketches.cuckoo",
    "repro.netwide.sharding",
)

#: The paper's four evaluated algorithms, in plotting order (§IV).
EVALUATED_KINDS = ("hashflow", "hashpipe", "elastic", "flowradar")

@dataclass(frozen=True)
class Registration:
    """One registry entry.

    Attributes:
        kind: registered name.
        ctor: callable building the collector from keyword params.
        accepts_seed: whether ``ctor`` takes a ``seed`` parameter.
        sizing: memory sizing rule ``(memory_bytes, params) -> params``
            or None if the kind has no memory budget notion.
    """

    kind: str
    ctor: Callable[..., Any]
    accepts_seed: bool
    sizing: Callable[[int, Mapping[str, Any]], dict[str, Any]] | None = None


_REGISTRY: dict[str, Registration] = {}
_SIZING: dict[str, Callable[[int, Mapping[str, Any]], dict[str, Any]]] = {}
_loaded = False


def _takes_seed(cls: type) -> bool:
    """Whether a collector class's constructor accepts a ``seed`` keyword."""
    params = inspect.signature(cls.__init__).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return True
    return "seed" in params


def register(kind: str):
    """Class decorator registering a collector kind.

    The decorated :class:`~repro.sketches.base.FlowCollector` subclass
    is constructed straight from spec params (``cls(**params)``) and
    gets a ``kind`` attribute so instances can report their spec.
    """

    def deco(cls):
        cls.kind = kind
        _REGISTRY[kind] = Registration(
            kind=kind, ctor=cls, accepts_seed=_takes_seed(cls), sizing=None
        )
        return cls

    return deco


def register_sizing(
    kind: str, rule: Callable[[int, Mapping[str, Any]], dict[str, Any]]
) -> None:
    """Attach a memory sizing rule to a kind.

    The rule maps ``(memory_bytes, explicit_params)`` to the size
    parameters that make the collector fit the budget; explicit params
    always win over sized ones.  Sizing rules live apart from the
    collectors (see :mod:`repro.specs.sizing`) because the budget split
    is evaluation policy (paper §IV-A), not algorithm behaviour.
    """
    _SIZING[kind] = rule


def _ensure_registered() -> None:
    """Import every module that contributes registrations (idempotent)."""
    global _loaded
    if _loaded:
        return
    for module in _REGISTRATION_MODULES:
        importlib.import_module(module)
    # Only marked complete after every import succeeded, so a transient
    # import failure does not freeze a partial registry.
    _loaded = True


def _get(kind: str) -> Registration:
    _ensure_registered()
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise SpecError(
            f"unknown collector kind {kind!r}; "
            f"available: {', '.join(available_kinds())}"
        ) from None


def available_kinds() -> list[str]:
    """Sorted names of every registered collector kind."""
    _ensure_registered()
    return sorted(_REGISTRY)


def display_name(kind: str) -> str:
    """The display name instances of a kind report (e.g. ``"HashFlow"``).

    Lets plan-building code label results without constructing a
    collector.
    """
    return _get(kind).ctor.name


def as_spec(obj: Any, params: Mapping[str, Any] | None = None) -> CollectorSpec:
    """Coerce a kind name / spec dict / spec / collector to a spec.

    Args:
        obj: a kind string, a :class:`CollectorSpec`, a canonical spec
            mapping, a registered collector class (its kind with
            default params), or a collector instance exposing ``.spec``.
        params: extra params merged in.
    """
    if isinstance(obj, CollectorSpec):
        if params:
            return obj.with_params(**dict(params))
        return obj
    if inspect.isclass(obj) and "kind" in vars(obj):
        obj = obj.kind
    if isinstance(obj, str):
        return CollectorSpec(obj, dict(params or {}))
    if isinstance(obj, Mapping):
        spec = CollectorSpec.from_dict(obj)
        if params:
            return spec.with_params(**dict(params))
        return spec
    spec = getattr(obj, "spec", None)
    if isinstance(spec, CollectorSpec):
        if params:
            return spec.with_params(**dict(params))
        return spec
    raise SpecError(f"cannot interpret {obj!r} as a collector spec")


def derive_seed(base_seed: int, salt: int | str) -> int:
    """Deterministic seed derivation for shards / switches / epochs.

    Stable across processes and platforms (no reliance on Python's
    randomized ``hash``): string salts go through CRC-32, and the mix
    is the same splitmix64 finalizer the hash families build on.
    """
    if isinstance(salt, str):
        salt_int = zlib.crc32(salt.encode("utf-8"))
    else:
        salt_int = int(salt)
    mixed = (int(base_seed) ^ splitmix64((salt_int * 0x9E3779B97F4A7C15) & MASK64)) & MASK64
    return splitmix64(mixed)


def reseeded(spec: CollectorSpec, salt: int | str) -> CollectorSpec:
    """A spec whose (possibly nested) seed is derived from ``salt``.

    Seedful kinds get ``seed = derive_seed(current_seed, salt)``; the
    sharded wrapper *also* recurses into its nested ``collector`` spec
    (a sharded spec deployed per switch must vary both its
    shard-assignment hash and its shards' collector seeds); seed-free
    kinds (exact, space-saving) come back unchanged.
    """
    reg = _get(spec.kind)
    updates: dict = {}
    if reg.accepts_seed:
        updates["seed"] = derive_seed(spec.params.get("seed", 0), salt)
    nested = spec.params.get("collector")
    if isinstance(nested, Mapping) and "kind" in nested:
        updates["collector"] = reseeded(CollectorSpec.from_dict(nested), salt).to_dict()
    if not updates:
        return spec
    return spec.with_params(**updates)


def build(
    spec_or_kind: Any,
    *,
    memory_bytes: int | None = None,
    scale: float | None = None,
    seed: int | None = None,
    **params: Any,
):
    """Build a collector from a spec or kind name.

    Args:
        spec_or_kind: a kind name (``"hashflow"``), a
            :class:`CollectorSpec`, a canonical spec mapping, or an
            existing collector (cloned via its spec).
        memory_bytes: size the collector to this budget through the
            kind's registered sizing rule (paper §IV-A formulas).
        scale: experiment scale factor; scales ``memory_bytes`` (or the
            paper's 1 MB default when ``memory_bytes`` is omitted)
            exactly as the experiment harness does.
        seed: overrides the spec's hash seed (ignored by seed-free
            kinds such as exact and space-saving).
        **params: extra constructor params; they override sized params.

    Returns:
        A fresh collector instance.

    Raises:
        SpecError: unknown kind, missing sizing rule when a budget was
            requested, or constructor rejection of the merged params.
    """
    spec = as_spec(spec_or_kind, params)
    reg = _get(spec.kind)
    merged = dict(spec.params)
    if memory_bytes is not None or scale is not None:
        from repro.specs.sizing import DEFAULT_MEMORY_BYTES, resolve_scale, scaled_memory

        budget = DEFAULT_MEMORY_BYTES if memory_bytes is None else int(memory_bytes)
        if scale is not None:
            budget = scaled_memory(resolve_scale(scale), base=budget)
        rule = _SIZING.get(spec.kind)
        if rule is None:
            raise SpecError(
                f"collector kind {spec.kind!r} has no registered sizing rule; "
                "pass explicit size params instead of memory_bytes/scale"
            )
        for key, value in rule(budget, merged).items():
            merged.setdefault(key, value)
    if seed is not None and reg.accepts_seed:
        merged["seed"] = seed
    try:
        return reg.ctor(**merged)
    except TypeError as exc:
        raise SpecError(f"cannot build {spec.kind!r} from params {merged}: {exc}") from exc


def build_evaluated(
    memory_bytes: int | None = None, seed: int = 0
) -> dict[str, Any]:
    """The paper's four evaluated algorithms at one memory budget.

    Returns ``{display name: collector}`` in the paper's plotting order
    (HashFlow, HashPipe, ElasticSketch, FlowRadar).
    """
    from repro.specs.sizing import DEFAULT_MEMORY_BYTES

    budget = DEFAULT_MEMORY_BYTES if memory_bytes is None else int(memory_bytes)
    collectors = {}
    for kind in EVALUATED_KINDS:
        collector = build(kind, memory_bytes=budget, seed=seed)
        collectors[collector.name] = collector
    return collectors

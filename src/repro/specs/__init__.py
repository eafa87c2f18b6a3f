"""Spec-driven collector construction: describe collectors by data.

The paper evaluates seven algorithms under one memory budget; this
package makes every collector *described by data* — named, parameterized,
serializable, and reconstructible on any shard, switch, or epoch:

* :class:`CollectorSpec` — frozen kind + params, JSON round-trippable
  through :class:`Spec`, the one codec every spec type shares (with
  the :func:`positive_count`/:func:`positive_finite` field checks);
* :func:`register` / :func:`available_kinds` — the global kind registry;
* :func:`build` — one construction path for the whole harness, with
  per-kind memory sizing rules (:mod:`repro.specs.sizing`);
* :func:`derive_seed` — deterministic per-shard/per-switch reseeding.

Higher layers nest these specs in their own descriptions: a
:class:`~repro.stream.spec.PipelineSpec` embeds a collector spec beside
its source/rotation/sink stages, and :mod:`repro.parallel` ships spec
dicts to worker processes — both lean on the same JSON-native currency.

Quickstart::

    from repro.specs import build

    collector = build("hashflow", memory_bytes=1 << 20, seed=0)
    spec = collector.spec          # CollectorSpec, JSON-serializable
    twin = build(spec)             # bit-identical reconstruction
    factory = collector.fresh_factory()   # zero-arg factory of clones
"""

from repro.specs.registry import (
    EVALUATED_KINDS,
    Registration,
    as_spec,
    available_kinds,
    build,
    build_evaluated,
    derive_seed,
    display_name,
    register,
    register_sizing,
    reseeded,
)
from repro.specs.sizing import (
    DEFAULT_MEMORY_BYTES,
    DEFAULT_SCALE,
    SCALE_ENV,
    resolve_scale,
    scaled_memory,
)
from repro.specs.spec import (
    CollectorSpec,
    Spec,
    SpecError,
    positive_count,
    positive_finite,
)

__all__ = [
    "CollectorSpec",
    "DEFAULT_MEMORY_BYTES",
    "DEFAULT_SCALE",
    "EVALUATED_KINDS",
    "Registration",
    "SCALE_ENV",
    "Spec",
    "SpecError",
    "as_spec",
    "available_kinds",
    "build",
    "build_evaluated",
    "derive_seed",
    "display_name",
    "positive_count",
    "positive_finite",
    "register",
    "register_sizing",
    "reseeded",
    "resolve_scale",
    "scaled_memory",
]

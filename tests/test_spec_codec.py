"""Every spec type's JSON is a trust boundary.

The five spec types share one codec (:class:`repro.specs.Spec`), and
outside data enters through ``from_dict``/``from_json``/``load``.  A
spec file either loads exactly — every value it holds is the value it
was given — or raises :class:`SpecError`; no other exception escapes
and no value is coerced on the way in.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flowdb import QuerySpec, StoreSpec
from repro.serve import ServeSpec
from repro.specs import CollectorSpec, SpecError
from repro.stream import PipelineSpec

_HF = {"kind": "hashflow", "params": {"main_cells": 1024, "seed": 3}}
_PIPELINE = {
    "source": {
        "kind": "synthetic",
        "params": {"profile": "caida", "n_flows": 100, "seed": 5},
    },
    "collector": _HF,
    "rotation": {"kind": "interval", "params": {"window": 0.5}},
    "sinks": [
        {"kind": "netflow_v5", "params": {}},
        {"kind": "heavy_hitters", "params": {"threshold": 10}},
    ],
    "chunk_size": 4096,
    "packet_rate": 10000.0,
    "packet_bytes": 500,
}
_SERVE_PIPELINE = {
    **_PIPELINE,
    "source": {"kind": "udp", "params": {"host": "127.0.0.1", "port": 0}},
}

#: One valid spec dict per type, every field spelled out.
VALID = {
    CollectorSpec: _HF,
    PipelineSpec: _PIPELINE,
    ServeSpec: {
        "pipeline": _SERVE_PIPELINE,
        "workers": 1,
        "ring_slots": 4096,
        "backpressure": "block",
        "stats_interval": 5.0,
        "max_restarts": 2,
        "restart_window": 30.0,
        "on_worker_loss": "replay",
        "faults": [],
    },
    QuerySpec: {
        "op": "lookup",
        "k": 5,
        "key": 42,
        "vantages": ["a", "b"],
        "last": 3,
        "start": 1,
        "stop": 9,
        "merge": "sum",
    },
    StoreSpec: {"fanout": 8, "schema": 1},
}
TYPES = sorted(VALID, key=lambda cls: cls.__name__)


def _stage_paths(pipeline: dict, prefix: tuple) -> list[tuple]:
    """The kind and every param of each stage of a pipeline dict."""
    paths = []
    for name in ("source", "collector", "rotation"):
        stage = pipeline[name]
        paths.append((*prefix, name, "kind"))
        paths += [(*prefix, name, "params", p) for p in stage["params"]]
    for i, stage in enumerate(pipeline["sinks"]):
        paths.append((*prefix, "sinks", i, "kind"))
        paths += [(*prefix, "sinks", i, "params", p) for p in stage["params"]]
    return paths


#: Where a drawn value replaces the valid one: every top-level field,
#: plus the kind and each param of every stage.
PATHS = {cls: [(name,) for name in VALID[cls]] for cls in TYPES}
PATHS[CollectorSpec] += [("params", p) for p in _HF["params"]]
PATHS[PipelineSpec] += _stage_paths(_PIPELINE, ())
PATHS[ServeSpec] += _stage_paths(_SERVE_PIPELINE, ("pipeline",))

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(max_value=-1),
    st.integers(min_value=2**64 + 1, max_value=2**80),
    st.just(2.5),
    st.sampled_from(["", "x", "1", "2.5", "two", "fast", "nope"]),
    st.text(max_size=6),
)
#: Drawn JSON values: null, bools, negative ints, ints above 2**64,
#: 2.5, strings, lists and objects.
JSON_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
)


def _get(data, path):
    for step in path:
        data = data[step]
    return data


def _replaced(data: dict, path: tuple, value) -> dict:
    data = json.loads(json.dumps(data))
    _get(data, path[:-1])[path[-1]] = value
    return data


def _same(a, b) -> bool:
    """Equal JSON values where ``true`` is not ``1`` and ``"1"`` is not
    ``1``, but ``5`` and ``5.0`` are one number (a float field stores
    a whole number as a float)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return (type(a) is bool) == (type(b) is bool) and a == b


def _loads_exactly_or_refuses(cls, path: tuple, value) -> None:
    """The spec with ``value`` at ``path`` raises SpecError, or loads
    holding exactly that value and round-trips through its JSON."""
    text = json.dumps(_replaced(VALID[cls], path, value))
    try:
        spec = cls.from_json(text)
    except SpecError:
        return
    assert _same(_get(spec.to_dict(), path), value)
    again = cls.from_json(spec.to_json())
    assert again == spec and again.to_json() == spec.to_json()


#: One value of each JSON kind, with the ones a coercion would read as
#: a number (``"1"``, ``true``, ``2.5``).
KINDS = [None, True, False, -1, 2**64 + 1, 2.5, "", "x", "1", "2.5",
         [], [1], {}, {"a": 1}]


@pytest.mark.parametrize(
    "cls,path",
    [(cls, path) for cls in TYPES for path in PATHS[cls]],
    ids=lambda v: v.__name__ if isinstance(v, type) else ".".join(map(str, v)),
)
def test_each_field_loads_each_json_kind_exactly_or_refuses(cls, path):
    for value in KINDS:
        _loads_exactly_or_refuses(cls, path, value)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestCodec:
    def test_valid_spec_round_trips(self, cls):
        spec = cls.from_dict(VALID[cls])
        assert spec.to_dict() == VALID[cls]
        again = cls.from_json(spec.to_json())
        assert again == spec and hash(again) == hash(spec)
        assert again.to_json() == spec.to_json()

    def test_file_round_trip(self, cls, tmp_path):
        spec = cls.from_dict(VALID[cls])
        spec.save(tmp_path / "spec.json")
        assert cls.load(tmp_path / "spec.json") == spec

    def test_every_proper_prefix_refused(self, cls):
        text = cls.from_dict(VALID[cls]).to_json(indent=2)
        for cut in range(len(text)):
            with pytest.raises(SpecError):
                cls.from_json(text[:cut])

    def test_unknown_field_refused(self, cls):
        with pytest.raises(SpecError, match=f"unknown {cls.what} fields"):
            cls.from_dict({**VALID[cls], "turbo": True})

    @pytest.mark.parametrize("data", [None, 5, "spec", [1, 2]])
    def test_not_a_mapping_refused(self, cls, data):
        with pytest.raises(SpecError, match=cls.what):
            cls.from_dict(data)

    @pytest.mark.parametrize("text", [b"\xff\xfe{", "[" * 100_000 + "]" * 100_000])
    def test_undecodable_or_too_deep_json_refused(self, cls, text):
        with pytest.raises(SpecError, match="JSON"):
            cls.from_json(text)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_drawn_field_loads_exactly_or_is_refused(self, cls, data):
        path = data.draw(st.sampled_from(PATHS[cls]), label="path")
        _loads_exactly_or_refuses(cls, path, data.draw(JSON_VALUES, label="value"))


#: Malformed files that loaded as something else or raised a bare
#: TypeError/ValueError before the shared codec.
MALFORMED = {
    "serve stats_interval 'fast'": (ServeSpec, ("stats_interval",), "fast"),
    "serve workers 'two'": (ServeSpec, ("workers",), "two"),
    "serve workers 1.7": (ServeSpec, ("workers",), 1.7),
    "serve workers '1'": (ServeSpec, ("workers",), "1"),
    "serve ring_slots null": (ServeSpec, ("ring_slots",), None),
    "serve faults 5": (ServeSpec, ("faults",), 5),
    "serve sink kind 'nope'": (ServeSpec, ("pipeline", "sinks", 0, "kind"), "nope"),
    "serve port 2.5": (ServeSpec, ("pipeline", "source", "params", "port"), 2.5),
    "query last 2.7": (QuerySpec, ("last",), 2.7),
    "query k 'ten'": (QuerySpec, ("k",), "ten"),
    "query vantages 3": (QuerySpec, ("vantages",), 3),
    "query vantages 'ab'": (QuerySpec, ("vantages",), "ab"),
    "pipeline sinks 7": (PipelineSpec, ("sinks",), 7),
    "pipeline packet_rate 2**64+1": (PipelineSpec, ("packet_rate",), 2**64 + 1),
    "collector params [[1, 2]]": (CollectorSpec, ("params",), [[1, 2]]),
    "store fanout 8.0": (StoreSpec, ("fanout",), 8.0),
    "store schema 2": (StoreSpec, ("schema",), 2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_value_refused(case):
    cls, path, value = MALFORMED[case]
    data = _replaced(VALID[cls], path, value)
    field = str(path[-1])
    match = "sink kinds" if field == "kind" else field
    with pytest.raises(SpecError, match=match):
        cls.from_dict(data)
    with pytest.raises(SpecError, match=cls.what):
        cls.from_json(json.dumps(data))


def test_direct_construction_refuses_with_spec_error():
    with pytest.raises(SpecError, match="workers"):
        ServeSpec(pipeline=_SERVE_PIPELINE, workers=1.7)
    with pytest.raises(SpecError, match="last"):
        QuerySpec(last=2.7)


def test_existing_store_json_still_opens(tmp_path):
    from repro.flowdb import FlowStore

    (tmp_path / "STORE.json").write_text('{\n  "fanout": 8,\n  "schema": 1\n}\n')
    assert FlowStore(tmp_path).spec == StoreSpec()
    fresh = tmp_path / "fresh"
    FlowStore(fresh)
    assert (fresh / "STORE.json").read_text() == (tmp_path / "STORE.json").read_text()

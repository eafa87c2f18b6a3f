"""What the correctness gate compares, kept free of heavy imports so
the processes under test load nothing the system itself would not."""

from __future__ import annotations

import hashlib

from repro.flowdb import FlowSummary, QuerySpec


def rotation_digest(rotations: dict) -> list:
    """Per-rotation ``(index, records, packets, sha256)`` of
    ``{rotation: {key: packets}}`` — what the live/offline gate compares."""
    out = []
    for rotation in sorted(rotations):
        records = rotations[rotation]
        digest = hashlib.sha256()
        for key in sorted(records):
            digest.update(f"{key}:{records[key]};".encode())
        out.append(
            (int(rotation), len(records), sum(records.values()), digest.hexdigest())
        )
    return out


def answer_query() -> QuerySpec:
    """The ``answer_s`` query: top-10 over all windows of every vantage."""
    return QuerySpec(op="topk", k=10, merge="max")


def expected_answer(spec: QuerySpec, truth: FlowSummary):
    """The normalized answer a query must return (see :func:`normalize`)."""
    if spec.op == "topk":
        return ("topk", tuple(truth.top_k(spec.k)))
    if spec.op == "lookup":
        hit = truth.lookup(spec.key)
        return ("lookup", hit is not None, hit[0] if hit else 0)
    return ("cardinality", truth.cardinality())


def answer_digest(answer) -> bytes:
    """A short fixed-size stand-in for a normalized answer, so the
    query process holds 20 bytes per expected answer, not the answer."""
    return hashlib.sha1(repr(answer).encode()).digest()


def normalize(result: dict):
    """The part of an ``execute`` result the gate compares."""
    op = result["op"]
    if op == "topk":
        return ("topk", tuple((r["key"], r["packets"]) for r in result["results"]))
    if op == "lookup":
        return ("lookup", bool(result["found"]), int(result["packets"]))
    return ("cardinality", int(result["flows"]))

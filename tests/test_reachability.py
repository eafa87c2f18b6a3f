"""Every public top-level name under ``src/`` is reached by the program.

A public function or class (no leading underscore, no decorator:
registered kinds are decorated and reached through the registry) is
reached when some file under ``src/``, ``benchmarks/``, ``examples/``
or ``perfbench/`` names it outside its own definition — as a name, an
attribute or an identifier string.  Imports and ``__all__`` lists do
not count, so a package re-export alone keeps nothing alive, and
neither do tests.

``KEPT`` lists the exceptions, each with its reason.  An entry whose
name is gone, or that has gained a caller, fails too, so the list
cannot go stale.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples", "perfbench")

KEPT = {
    "repro.netwide.merge.merge_sum": (
        "the sum merge flowdb.merge_summaries is pinned to bit for bit "
        "(DESIGN §12; test_flowdb, test_flowdb_identity)"
    ),
    "repro.traces.replay.split_by_time": (
        "oracle for interval rotation: test_stream_pipeline feeds a "
        "fresh table each split_by_time window"
    ),
    "repro.shm.segments.owned_segments": (
        "the segment registry's view that the shm leak tests read"
    ),
    "repro.analysis.model.predicted_records": (
        "the paper's record-count model; ROADMAP item 7 reports it "
        "beside each rotation's exported records"
    ),
    "repro.parallel.engine.merge_meters": (
        "exact fan-in of per-cell meters; ROADMAP item 7's per-process "
        "metric shards merge the same way"
    ),
    "repro.export.netflow_v5.parse_datagram_partial": (
        "tolerant v5 parser for truncated datagrams, fuzzed at every "
        "byte offset (DESIGN §11)"
    ),
    "repro.analysis.anomaly.detect_flood_victims": (
        "fan-in half of the anomaly detectors; AnomalyTap uses the "
        "fan-out half, detect_scanners"
    ),
    "repro.netwide.topology.linear_chain": (
        "a fabric without edge/core roles, the FlowRouter case "
        "test_netwide routes over"
    ),
    "repro.traces.mixer.inject_elephants": (
        "the mid-epoch elephant scenario beside syn_flood and "
        "port_scan (test_trace_mixer)"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _references(tree: ast.Module):
    """``(name, line)`` for every name, attribute and identifier
    string, outside imports and ``__all__`` lists."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        targets = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            skipped.update(id(sub) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value, node.lineno


def _scan() -> tuple[set[str], set[str]]:
    """``(defined, unreached)`` qualified public names under ``src/``."""
    defined: dict[str, tuple[Path, ast.AST]] = {}
    sites: dict[str, set[tuple[Path, int]]] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            if top == "src":
                module = _module_name(path)
                for node in tree.body:
                    if (
                        isinstance(
                            node,
                            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                        )
                        and not node.name.startswith("_")
                        and not node.decorator_list
                    ):
                        defined[f"{module}.{node.name}"] = (path, node)
            for name, line in _references(tree):
                sites.setdefault(name, set()).add((path, line))
    unreached = set()
    for qualname, (path, node) in defined.items():
        if not any(
            not (site == path and node.lineno <= line <= node.end_lineno)
            for site, line in sites.get(node.name, ())
        ):
            unreached.add(qualname)
    return set(defined), unreached


def test_every_public_name_is_reached_or_kept():
    defined, unreached = _scan()
    dead = sorted(unreached - set(KEPT))
    assert not dead, (
        f"public names nothing in {', '.join(SCANNED)} reaches: {dead}; "
        "delete them, or add each to KEPT with its reason"
    )
    gone = sorted(set(KEPT) - defined)
    assert not gone, f"KEPT names no longer defined: {gone}"
    reached = sorted(set(KEPT) - unreached)
    assert not reached, f"KEPT names that gained a caller: {reached}"
    assert all(reason.strip() for reason in KEPT.values())

"""The on-disk flow store: summaries indexed by vantage × time window.

Layout (DESIGN §12)::

    <root>/
      STORE.json                      # frozen StoreSpec (schema, fanout)
      vantages/<vantage>/
        L0/w00000000.flow             # leaf: one rotation window
        L0/w00000003.flow             # leaves are sparse (empty windows
        L1/w00000000.flow             #   export nothing, PR 5 rotation)
        L2/w00000000.flow             # parents: fanout**level windows

Every ``.flow`` file is an atomically-written (write-then-rename +
fsync, :mod:`repro.stream.durable`) numpy ``.npz`` holding the four
:class:`~repro.flowdb.summary.FlowSummary` columns plus a JSON meta
blob naming exactly which leaf windows the node covers and which of
them were degraded.  A parent node is *derived* data: it is the exact
:func:`~repro.flowdb.summary.merge_summaries` (``sum`` — windows of
one vantage are disjoint in time) of the leaves it names, so queries
answer from the highest node whose coverage matches the request and
never re-read children (the leaf files can even be deleted after
:meth:`FlowStore.merge_up`, as cold-tiering would).

Freshness is structural, not timestamped: a leaf ingested *after* a
parent was built breaks the parent's coverage-equality check in
:meth:`FlowStore.plan`, so the planner transparently falls back to
finer nodes until the next ``merge_up``.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Iterable, Mapping

import numpy as np

from repro.flowdb.summary import FlowSummary, merge_summaries
from repro.specs import Spec, SpecError, positive_count
from repro.stream.durable import atomic_write_bytes, read_archive

#: Store layout version; readers reject stores written by a different one.
STORE_SCHEMA = 1

#: Name of the store's spec file at the root.
STORE_SPEC_NAME = "STORE.json"

#: Default merge fan-out: windows per parent at each level step.
DEFAULT_FANOUT = 8

#: Node file naming: ``w<start:08d>.flow``.
_NODE_FILE_RE = re.compile(r"^w(\d{8,})\.flow$")

#: Vantage names must be path-safe single components.
_VANTAGE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

class StoreError(ValueError):
    """A flow store failed validation or an operation was inconsistent."""


@dataclass(frozen=True, eq=False)
class StoreSpec(Spec):
    """Frozen, JSON-round-trippable store configuration.

    Attributes:
        fanout: leaf windows per level-1 parent; each further level
            multiplies coverage by ``fanout`` again.
        schema: the store layout version; only this reader's
            :data:`STORE_SCHEMA` loads.
    """

    fanout: int = DEFAULT_FANOUT
    schema: int = STORE_SCHEMA

    what: ClassVar[str] = "store spec"

    def _validate(self):
        if positive_count("schema", self.schema) != STORE_SCHEMA:
            raise SpecError(
                f"store schema {self.schema!r} is not this reader's {STORE_SCHEMA}"
            )
        self._set(fanout=positive_count("fanout", self.fanout, minimum=2))


@dataclass(frozen=True)
class NodeRef:
    """One stored summary node: where it lives and what it covers."""

    vantage: str
    level: int
    start: int
    windows: tuple[int, ...]
    degraded_windows: tuple[int, ...]
    count: int
    packets: int

    @property
    def span(self) -> int:
        """Leaf-window indices this node's slot may cover (not all
        need exist — empty windows export nothing)."""
        return self.windows[-1] - self.windows[0] + 1 if self.windows else 0


def _check_vantage(vantage: str) -> str:
    vantage = str(vantage)
    if not _VANTAGE_RE.match(vantage):
        raise StoreError(
            f"vantage {vantage!r} is not a path-safe name "
            "(letters/digits/._- only, no leading dot)"
        )
    return vantage


def _encode_node(summary: FlowSummary, meta: dict[str, Any]) -> bytes:
    buffer = io.BytesIO()
    meta_blob = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(
        buffer,
        lo=summary.lo,
        hi=summary.hi,
        packets=summary.packets,
        octets=summary.octets,
        meta=meta_blob,
    )
    return buffer.getvalue()


def _read_meta(path: Path) -> dict[str, Any]:
    """Read only a node's JSON meta blob (npz members load lazily, so
    the summary arrays stay untouched on disk)."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(bytes(npz["meta"].tobytes()).decode("utf-8"))
    except (OSError, KeyError, ValueError) as exc:
        raise StoreError(f"unreadable store node {path}: {exc}") from exc
    if meta.get("schema") != STORE_SCHEMA:
        raise StoreError(
            f"store node {path} has schema {meta.get('schema')!r}, "
            f"not {STORE_SCHEMA}"
        )
    return meta


def _decode_node(path: Path) -> tuple[FlowSummary, dict[str, Any]]:
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(bytes(npz["meta"].tobytes()).decode("utf-8"))
            summary = FlowSummary(
                lo=npz["lo"].astype(np.uint64, copy=False),
                hi=npz["hi"].astype(np.uint64, copy=False),
                packets=npz["packets"].astype(np.int64, copy=False),
                octets=npz["octets"].astype(np.int64, copy=False),
                degraded_windows=tuple(meta.get("degraded_windows", ())),
            )
    except (OSError, KeyError, ValueError) as exc:
        raise StoreError(f"unreadable store node {path}: {exc}") from exc
    if meta.get("schema") != STORE_SCHEMA:
        raise StoreError(
            f"store node {path} has schema {meta.get('schema')!r}, "
            f"not {STORE_SCHEMA}"
        )
    return summary, meta


class FlowStore:
    """An open vantage × time-window summary store rooted at a directory.

    Args:
        root: store directory.  An existing ``STORE.json`` is validated
            against this reader's schema; a missing one is written
            (open-or-create), so sinks and the CLI share one entry
            point.
        spec: configuration for a store being created; must not
            contradict an existing ``STORE.json``.
    """

    def __init__(self, root, spec: StoreSpec | None = None):
        self.root = Path(root)
        spec_path = self.root / STORE_SPEC_NAME
        if spec_path.exists():
            existing = StoreSpec.load(spec_path)
            if spec is not None and spec != existing:
                raise StoreError(
                    f"store at {self.root} was created with {existing.to_dict()}; "
                    f"refusing to reopen with {spec.to_dict()}"
                )
            self.spec = existing
        else:
            self.spec = spec or StoreSpec()
            self.root.mkdir(parents=True, exist_ok=True)
            text = self.spec.to_json(indent=2) + "\n"
            atomic_write_bytes(spec_path, text.encode("utf-8"))

    # -- layout helpers ------------------------------------------------

    def _vantage_dir(self, vantage: str) -> Path:
        return self.root / "vantages" / _check_vantage(vantage)

    def _node_path(self, vantage: str, level: int, start: int) -> Path:
        return self._vantage_dir(vantage) / f"L{int(level)}" / f"w{int(start):08d}.flow"

    def vantages(self) -> list[str]:
        """Vantage names present in the store, sorted."""
        base = self.root / "vantages"
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.iterdir() if p.is_dir())

    def levels(self, vantage: str) -> list[int]:
        """Hierarchy levels present for a vantage, ascending (0 = leaf)."""
        base = self._vantage_dir(vantage)
        if not base.is_dir():
            return []
        levels = []
        for path in base.iterdir():
            if path.is_dir() and path.name.startswith("L"):
                try:
                    levels.append(int(path.name[1:]))
                except ValueError:
                    continue
        return sorted(levels)

    def nodes(self, vantage: str, level: int) -> list[NodeRef]:
        """Node refs at one level, ascending start (meta only — the
        summary arrays are not read)."""
        directory = self._vantage_dir(vantage) / f"L{int(level)}"
        if not directory.is_dir():
            return []
        refs = []
        for path in sorted(directory.iterdir()):
            match = _NODE_FILE_RE.match(path.name)
            if match is None:
                continue
            meta = _read_meta(path)
            refs.append(
                NodeRef(
                    vantage=str(vantage),
                    level=int(level),
                    start=int(match.group(1)),
                    windows=tuple(meta["windows"]),
                    degraded_windows=tuple(meta.get("degraded_windows", ())),
                    count=int(meta.get("count", 0)),
                    packets=int(meta.get("packets", 0)),
                )
            )
        return refs

    def leaf_windows(self, vantage: str) -> list[int]:
        """Every leaf window index with data, from leaves *or* parents.

        Parents name the leaves they merged, so a store whose L0 files
        were tiered away (deleted after :meth:`merge_up`) still knows —
        and can answer for — its full window set.
        """
        windows: set[int] = set()
        for level in self.levels(vantage):
            for ref in self.nodes(vantage, level):
                windows.update(ref.windows)
        return sorted(windows)

    def has_node(self, vantage: str, level: int, start: int) -> bool:
        """Whether the node's file exists (a tiered-away leaf does not)."""
        return self._node_path(vantage, level, start).is_file()

    def load_node(self, vantage: str, level: int, start: int) -> FlowSummary:
        """Read one node's summary arrays."""
        summary, _ = _decode_node(self._node_path(vantage, level, start))
        return summary

    # -- ingest --------------------------------------------------------

    def _write_leaf(
        self, vantage: str, window: int, summary: FlowSummary
    ) -> None:
        path = self._node_path(vantage, 0, window)
        if path.exists():
            raise StoreError(
                f"window {window} already ingested for vantage {vantage!r} "
                "(use append=True to offset a new run past existing windows)"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "schema": STORE_SCHEMA,
            "vantage": str(vantage),
            "level": 0,
            "start": int(window),
            "windows": [int(window)],
            "degraded_windows": sorted(summary.degraded_windows),
            "count": len(summary),
            "packets": summary.total_packets,
        }
        atomic_write_bytes(path, _encode_node(summary, meta))

    def _append_base(self, vantage: str) -> int:
        existing = self.leaf_windows(vantage)
        return existing[-1] + 1 if existing else 0

    def ingest_rotations(
        self,
        vantage: str,
        by_rotation: Mapping[int, Any],
        degraded: Iterable[int] = (),
        append: bool = False,
    ) -> list[int]:
        """Ingest per-rotation record batches as leaf windows.

        The handoff from the streaming side: ``by_rotation`` is exactly
        the shape of :attr:`~repro.stream.sinks.ArchiveSink.by_rotation`
        (rotation index → that window's exported records), ``degraded``
        the sink's flagged rotations.  Each window's summary is built
        from the batch's columns by the one column merge.

        Args:
            vantage: which vantage observed these rotations.
            by_rotation: rotation index →
                :class:`~repro.stream.records.RecordBatch` (or an
                iterable of record objects with
                ``key``/``packets``/``octets``).
            degraded: rotation indices whose content is incomplete.
            append: shift incoming rotation indices past the vantage's
                existing windows (for successive runs into one store);
                without it a window collision is an error.

        Returns:
            The leaf window indices written, ascending.
        """
        _check_vantage(vantage)
        degraded = {int(r) for r in degraded}
        base = self._append_base(vantage) if append else 0
        rotations = sorted(int(r) for r in by_rotation)
        offset = base - rotations[0] if (append and rotations) else base
        written = []
        for rotation in rotations:
            window = rotation + offset
            tainted = (rotation in degraded)
            summary = FlowSummary.from_records(
                by_rotation[rotation],
                degraded_windows=(window,) if tainted else (),
            )
            self._write_leaf(vantage, window, summary)
            written.append(window)
        return written

    def ingest_archive(
        self, vantage: str, directory, append: bool = False
    ) -> list[int]:
        """Ingest a durable rotation archive (PR 9 sinks) as leaf windows.

        The archive is validated end to end
        (:func:`repro.stream.durable.read_archive`) and its per-rotation
        degraded flags become per-window taint — the propagation the
        manifest format exists for.  ``.nfv5`` archives decode through
        the v5 codec (octets preserved); ``.jsonl``/``.csv`` archives
        through the text-sink row format.

        Returns:
            The leaf window indices written, ascending.

        Raises:
            ArchiveError: if the directory is not a whole archive.
            StoreError: on window collisions (without ``append``) or an
                archive suffix no decoder understands.
        """
        view = read_archive(directory)
        decoder = _PAYLOAD_DECODERS.get(view.suffix)
        if decoder is None:
            raise StoreError(
                f"no decoder for archive suffix {view.suffix!r}; "
                f"understood: {', '.join(sorted(_PAYLOAD_DECODERS))}"
            )
        by_rotation: dict[int, list[Any]] = {}
        degraded: set[int] = set()
        for rotation, payloads, tainted in view.rotations():
            records: list[Any] = []
            for payload in payloads:
                records.extend(decoder(payload))
            by_rotation[rotation] = records
            if tainted:
                degraded.add(rotation)
        if not by_rotation:
            return []
        return self.ingest_rotations(vantage, by_rotation, degraded, append)

    def ingest_netflow_file(
        self, vantage: str, path, append: bool = False
    ) -> list[int]:
        """Ingest a raw concatenated NetFlow v5 capture as one window.

        For v5 files that did not come from a rotation archive (a
        single export dump, an ``nfcapd``-style capture): the whole
        file becomes one leaf window, since the stream itself carries
        no rotation boundaries.
        """
        data = Path(path).read_bytes()
        records = _decode_nfv5(data)
        window = self._append_base(vantage) if append else 0
        summary = FlowSummary.from_records(records)
        self._write_leaf(vantage, window, summary)
        return [window]

    # -- hierarchy -----------------------------------------------------

    def merge_up(self, vantage: str) -> list[NodeRef]:
        """(Re)build parent levels for a vantage; returns written refs.

        Level ``L`` groups level ``L−1`` nodes by aligned spans of
        ``fanout**L`` leaf windows and writes one exact-sum merge per
        group with ≥ 2 children (a lone child gains nothing from a
        copy).  Existing parents are rewritten only when their coverage
        changed, so re-running after new ingests is cheap and
        idempotent.  Building stops at the first level that would hold
        fewer than two nodes.
        """
        _check_vantage(vantage)
        fanout = self.spec.fanout
        written: list[NodeRef] = []
        level = 1
        while True:
            children = self.nodes(vantage, level - 1)
            if len(children) < 2:
                break
            span = fanout ** level
            groups: dict[int, list[NodeRef]] = {}
            for child in children:
                groups.setdefault((child.start // span) * span, []).append(child)
            made_any = False
            for start, members in sorted(groups.items()):
                if len(members) < 2:
                    continue
                windows = sorted({w for m in members for w in m.windows})
                path = self._node_path(vantage, level, start)
                if path.exists():
                    meta = _read_meta(path)
                    if list(meta["windows"]) == windows:
                        made_any = True
                        continue
                merged = merge_summaries(
                    [
                        self.load_node(vantage, member.level, member.start)
                        for member in members
                    ],
                    mode="sum",
                )
                meta = {
                    "schema": STORE_SCHEMA,
                    "vantage": str(vantage),
                    "level": level,
                    "start": int(start),
                    "windows": windows,
                    "degraded_windows": sorted(merged.degraded_windows),
                    "count": len(merged),
                    "packets": merged.total_packets,
                }
                path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_bytes(path, _encode_node(merged, meta))
                written.append(
                    NodeRef(
                        vantage=str(vantage),
                        level=level,
                        start=int(start),
                        windows=tuple(windows),
                        degraded_windows=tuple(sorted(merged.degraded_windows)),
                        count=len(merged),
                        packets=merged.total_packets,
                    )
                )
                made_any = True
            if not made_any:
                break
            level += 1
        return written

    # -- planning / reading --------------------------------------------

    def plan(self, vantage: str, windows: Iterable[int]) -> list[NodeRef]:
        """Choose the fewest, highest nodes that exactly cover ``windows``.

        Levels are walked top-down; a node is taken when the leaf
        windows it covers are precisely the still-uncovered targets
        inside its span — the equality that both keeps parents exact
        (never answering with windows the query excluded) and detects
        staleness (a leaf ingested after the parent was built falls
        through to finer nodes).  Chosen parents are answered from
        their own arrays; children are **not** re-read.

        Raises:
            StoreError: when some target window exists in no node.
        """
        target = {int(w) for w in windows}
        if not target:
            return []
        fanout = self.spec.fanout
        chosen: list[NodeRef] = []
        for level in sorted(self.levels(vantage), reverse=True):
            span = fanout ** level if level else 1
            for ref in self.nodes(vantage, level):
                covered = set(ref.windows)
                in_span = {w for w in target if ref.start <= w < ref.start + span}
                if covered and covered == in_span:
                    chosen.append(ref)
                    target -= covered
            if not target:
                break
        if target:
            raise StoreError(
                f"no stored summary covers windows {sorted(target)} "
                f"for vantage {vantage!r}"
            )
        return sorted(chosen, key=lambda ref: (ref.start, ref.level))

    def summarize(self, vantage: str, windows: Iterable[int]) -> FlowSummary:
        """Exact merged summary of a vantage over ``windows`` (sum —
        windows of one vantage are disjoint in time)."""
        refs = self.plan(vantage, windows)
        return merge_summaries(
            [self.load_node(vantage, ref.level, ref.start) for ref in refs],
            mode="sum",
        )

    def describe(self) -> dict[str, Any]:
        """Store-wide inventory for ``query ls``: per-vantage levels,
        node/window counts, packet totals, degraded windows."""
        out: dict[str, Any] = {"root": str(self.root), "fanout": self.spec.fanout}
        vantages = {}
        for vantage in self.vantages():
            levels = {}
            degraded: set[int] = set()
            for level in self.levels(vantage):
                refs = self.nodes(vantage, level)
                levels[level] = {
                    "nodes": len(refs),
                    "flows": sum(ref.count for ref in refs),
                    "packets": sum(ref.packets for ref in refs),
                }
                for ref in refs:
                    degraded.update(ref.degraded_windows)
            vantages[vantage] = {
                "windows": self.leaf_windows(vantage),
                "levels": levels,
                "degraded_windows": sorted(degraded),
            }
        out["vantages"] = vantages
        return out


# ---------------------------------------------------------------------
# Archive payload decoders (suffix → records with key/packets/octets)
# ---------------------------------------------------------------------

def _decode_nfv5(payload: bytes) -> list[Any]:
    from repro.export.netflow_v5 import parse_stream_records, split_stream

    return parse_stream_records(iter(split_stream(payload)))


def _row_record(row: Mapping[str, Any]) -> Any:
    from repro.flow.key import pack_key, parse_ip
    from repro.stream.records import FlowRecord

    octets = row.get("octets")
    return FlowRecord(
        key=pack_key(
            parse_ip(str(row["src_ip"])),
            parse_ip(str(row["dst_ip"])),
            int(row["src_port"]),
            int(row["dst_port"]),
            int(row["proto"]),
        ),
        packets=int(row["packets"]),
        octets=None if octets in (None, "", "None") else int(octets),
    )


def _decode_jsonl(payload: bytes) -> list[Any]:
    return [
        _row_record(json.loads(line))
        for line in payload.decode("utf-8").splitlines()
        if line.strip()
    ]


def _decode_csv(payload: bytes) -> list[Any]:
    import csv as _csv

    from repro.stream.sinks import TextSink

    reader = _csv.reader(io.StringIO(payload.decode("utf-8")))
    header = next(reader, None)
    if header != list(TextSink.CSV_COLUMNS):
        raise StoreError(f"unexpected archive CSV header: {header}")
    return [_row_record(dict(zip(header, row))) for row in reader if row]


_PAYLOAD_DECODERS = {
    ".nfv5": _decode_nfv5,
    ".jsonl": _decode_jsonl,
    ".csv": _decode_csv,
}

"""Durable file writes for sinks: atomic, fsynced, retried (DESIGN §11).

A rotation archive that a crashed writer leaves half-written is worse
than no archive — downstream tooling (Flowyager-style aggregation
layers, ``nfdump`` over an archive directory) assumes a file either
holds a complete rotation or does not exist.  This module pins the
discipline every file-writing sink uses:

* **Atomic visibility.**  Content is written to a same-directory temp
  file and ``os.replace``\\ d into place; readers never observe a
  partial file, and a crash leaves at worst an orphaned temp (cleaned
  on the next write or by :meth:`RotationArchive.abort`).
* **Durability.**  The temp file is fsynced before the rename and the
  directory is fsynced after it, so a completed rotation survives a
  host crash, not just a process crash.
* **Bounded retry.**  Transient ``OSError``\\ s (``EINTR``, ``EAGAIN``,
  ``ENOSPC`` — the disk-full case an operator may clear) are retried
  with capped exponential backoff; anything else, or exhaustion of the
  budget, propagates to the caller's abort path.

Every physical write attempt first consults :func:`repro.faults.active`
so a chaos plan can fail "the Mth sink write" deterministically.
"""

from __future__ import annotations

import errno
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

#: OSError errnos worth retrying: interrupted call, transient
#: resource pressure, and disk-full (an operator-clearable condition).
TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN, errno.ENOSPC})

#: Retry budget per logical write (attempts = retries + 1).
DEFAULT_RETRIES = 3

#: First backoff sleep; doubles per retry (0.02, 0.04, 0.08 ...).
DEFAULT_BACKOFF_S = 0.02


def _inject_fault() -> None:
    """Raise the active fault plan's injected sink-write error, if due."""
    from repro import faults

    plan = faults.active()
    if plan is not None:
        error = plan.sink_write_error()
        if error is not None:
            raise error


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a completed rename survives a host crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_once(path: Path, data: bytes, fsync: bool) -> None:
    """One atomic write attempt: temp file → fsync → rename → dir fsync."""
    _inject_fault()
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_dir(path.parent)


def atomic_write_bytes(
    path,
    data: bytes,
    fsync: bool = True,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> None:
    """Write ``data`` to ``path`` atomically, retrying transient errors.

    Args:
        path: destination file; the temp file lives beside it so the
            rename never crosses filesystems.
        data: full file content.
        fsync: fsync the file before and the directory after the
            rename (off only for tests and throwaway output).
        retries: transient-error retries after the first attempt.
        backoff_s: first retry sleep; doubles per further retry.

    Raises:
        OSError: a non-transient error, or a transient one that
            outlived the retry budget — the caller's abort path.
    """
    path = Path(path)
    for attempt in range(retries + 1):
        try:
            _write_once(path, data, fsync)
            return
        except OSError as exc:
            if exc.errno not in TRANSIENT_ERRNOS or attempt >= retries:
                raise
            time.sleep(backoff_s * (2 ** attempt))


def atomic_write_text(path, text: str, **kwargs) -> None:
    """UTF-8 convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"), **kwargs)


#: Manifest schema version written by :meth:`RotationArchive.finalize`.
#: Bumped on any incompatible layout change; readers reject unknown
#: versions instead of guessing.  Manifests written before the field
#: existed are read as version 1 (their layout is identical).
MANIFEST_SCHEMA = 1

#: Rotation-file naming discipline: ``rotation-RRRRRR-PP<suffix>``.
_ROTATION_FILE_RE = re.compile(r"^rotation-(\d{6,})-(\d{2,})(\.[A-Za-z0-9_.]+)$")


class ArchiveError(ValueError):
    """A rotation archive failed validation (missing/partial/foreign)."""


class RotationArchive:
    """One directory of per-rotation archive files plus a manifest.

    The shared backing of file-writing sinks
    (:class:`~repro.stream.sinks.NetFlowV5Sink`,
    :class:`~repro.stream.sinks.TextSink`): each export lands in its
    own atomically-written ``rotation-RRRRRR-PP<suffix>`` file
    (``RRRRRR`` the rotation index, ``PP`` a per-rotation part counter
    — several workers export the same wall-clock window), and
    :meth:`finalize` writes ``MANIFEST.json`` recording every file with
    its record counts and whether its rotation was flagged *degraded*
    (a worker loss made that window's content incomplete).

    Args:
        directory: archive directory (created if missing).
        suffix: rotation-file suffix, e.g. ``".nfv5"`` / ``".jsonl"``.
    """

    MANIFEST_NAME = "MANIFEST.json"

    def __init__(self, directory, suffix: str):
        self.directory = Path(directory)
        self.suffix = str(suffix)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.entries: list[dict[str, Any]] = []
        self._parts: dict[int, int] = {}

    def write(self, rotation: int, data: bytes, **meta) -> str:
        """Write one rotation part atomically; returns the file name."""
        rotation = int(rotation)
        part = self._parts.get(rotation, 0)
        self._parts[rotation] = part + 1
        name = f"rotation-{rotation:06d}-{part:02d}{self.suffix}"
        atomic_write_bytes(self.directory / name, data)
        self.entries.append(
            {"file": name, "rotation": rotation, "bytes": len(data), **meta}
        )
        return name

    def finalize(self, degraded: set[int] = frozenset()) -> None:
        """Write the manifest: every file, every degraded rotation."""
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "complete": True,
            "suffix": self.suffix,
            "degraded": sorted(int(r) for r in degraded),
            "files": [
                {**entry, "degraded": entry["rotation"] in degraded}
                for entry in self.entries
            ],
        }
        atomic_write_text(
            self.directory / self.MANIFEST_NAME,
            json.dumps(manifest, indent=2) + "\n",
        )

    def abort(self) -> None:
        """Best-effort cleanup of orphaned temp files; no manifest.

        Completed rotation files stay (they are whole by construction);
        only ``.*.tmp.*`` leftovers from an interrupted attempt go.
        """
        try:
            strays = list(self.directory.glob(".*.tmp.*"))
        except OSError:  # pragma: no cover - directory vanished
            return
        for stray in strays:
            try:
                stray.unlink()
            except OSError:  # pragma: no cover - best effort
                pass


@dataclass(frozen=True)
class ArchiveView:
    """A validated, read-only view of one rotation-archive directory.

    What :func:`read_archive` returns: the manifest's claims, checked
    against the directory, with the degraded-window flags the writer
    recorded — the flags the raw rotation files themselves cannot
    carry, which is why readers must come through here rather than
    globbing ``rotation-*`` files (the silent-drop bug this type exists
    to close).

    Attributes:
        directory: the archive directory.
        suffix: rotation-file suffix (``".nfv5"`` / ``".jsonl"`` / ...).
        degraded: rotation indices the writer flagged degraded.
        files: validated manifest file entries, manifest order.
    """

    directory: Path
    suffix: str
    degraded: frozenset[int]
    files: tuple = ()

    def rotations(self) -> Iterator[tuple[int, list[bytes], bool]]:
        """Yield ``(rotation, payloads, degraded)`` per rotation, ascending.

        ``payloads`` holds every part file's bytes in part order (a
        multi-worker daemon writes one part per worker export of the
        same window); ``degraded`` is the writer's taint flag for that
        rotation, so downstream stores can mark the window instead of
        treating a known-incomplete rotation as whole truth.
        """
        by_rotation: dict[int, list[str]] = {}
        for entry in self.files:
            by_rotation.setdefault(int(entry["rotation"]), []).append(entry["file"])
        for rotation in sorted(by_rotation):
            payloads = [
                (self.directory / name).read_bytes()
                for name in sorted(by_rotation[rotation])
            ]
            yield rotation, payloads, rotation in self.degraded


def read_archive(directory) -> ArchiveView:
    """Open a finalized rotation archive for reading, validated.

    The reader half of :class:`RotationArchive` and the one parse of
    its ``MANIFEST.json``.  Validation is strict — an archive a crashed
    or foreign writer left behind fails loudly instead of feeding a
    reader partial data:

    * the manifest must exist, parse as a JSON object, carry a known
      ``schema`` version (absent means 1, the pre-versioning layout),
      be ``complete`` and name a ``suffix``;
    * its ``degraded`` list (absent means none) must hold rotation
      indices, integers >= 0;
    * every entry must name a plain ``rotation-RRRRRR-PP<suffix>`` file
      (no path separators, no ``.tmp.`` strays) whose recorded
      ``rotation`` matches the name and which exists in the directory
      with exactly the recorded byte size (a size mismatch is a partial
      or tampered file the atomic-write discipline should have made
      impossible); its ``degraded`` flag, when present, must be a bool.

    The view's :meth:`~ArchiveView.rotations` iterator surfaces the
    degraded-window flags next to each rotation's payload bytes, so
    callers (e.g. :mod:`repro.flowdb` ingest) never hand-parse
    ``MANIFEST.json`` or silently lose taint flags again.

    Raises:
        ArchiveError: if the directory is not a whole, finalized archive.
    """
    directory = Path(directory)
    manifest_path = directory / RotationArchive.MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ArchiveError(
            f"no {RotationArchive.MANIFEST_NAME} in {directory} — not a "
            "finalized rotation archive (the writer crashed before "
            "finalize, or this is not an archive directory)"
        ) from None
    except (OSError, ValueError, RecursionError) as exc:
        raise ArchiveError(f"unreadable manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArchiveError(f"manifest {manifest_path} is not a JSON object")
    schema = manifest.get("schema", 1)
    if type(schema) is not int or schema != MANIFEST_SCHEMA:
        raise ArchiveError(
            f"manifest {manifest_path} has schema {schema!r}; this reader "
            f"understands {MANIFEST_SCHEMA}"
        )
    if manifest.get("complete") is not True:
        raise ArchiveError(f"manifest {manifest_path} is not marked complete")
    suffix = manifest.get("suffix")
    if not isinstance(suffix, str) or not suffix:
        raise ArchiveError(f"manifest {manifest_path} has no suffix")
    degraded = manifest.get("degraded", [])
    if not isinstance(degraded, list) or not all(
        type(r) is int and r >= 0 for r in degraded
    ):
        raise ArchiveError(
            f"manifest {manifest_path} degraded {degraded!r} is not a list "
            "of rotation indices"
        )
    files = manifest.get("files")
    if not isinstance(files, list):
        raise ArchiveError(f"manifest {manifest_path} has no file list")
    entries = []
    for entry in files:
        if not isinstance(entry, dict):
            raise ArchiveError(f"malformed manifest entry {entry!r}")
        name = entry.get("file")
        if not isinstance(name, str) or "/" in name or os.sep in name:
            raise ArchiveError(f"manifest entry names a non-local file {name!r}")
        if ".tmp." in name or name.startswith("."):
            raise ArchiveError(
                f"manifest entry names a temp stray {name!r} — the archive "
                "was finalized around an interrupted write"
            )
        match = _ROTATION_FILE_RE.match(name)
        if match is None or not name.endswith(suffix):
            raise ArchiveError(
                f"manifest entry {name!r} does not follow the "
                f"rotation-RRRRRR-PP{suffix} naming discipline"
            )
        rotation = entry.get("rotation")
        if type(rotation) is not int or rotation != int(match.group(1)):
            raise ArchiveError(
                f"manifest entry {name!r} disagrees with its recorded "
                f"rotation {rotation!r}"
            )
        size = entry.get("bytes")
        if type(size) is not int or size < 0:
            raise ArchiveError(f"manifest entry {name!r} has no byte size")
        tainted = entry.get("degraded", False)
        if not isinstance(tainted, bool):
            raise ArchiveError(
                f"manifest entry {name!r} degraded {tainted!r} is not a bool"
            )
        try:
            actual = (directory / name).stat().st_size
        except FileNotFoundError:
            raise ArchiveError(
                f"manifest names {name!r} but the file is missing from "
                f"{directory}"
            ) from None
        if actual != size:
            raise ArchiveError(
                f"{name!r} is {actual} bytes but the manifest recorded "
                f"{size} — a partial or tampered rotation file"
            )
        entries.append({**entry, "degraded": tainted})
    return ArchiveView(
        directory=directory,
        suffix=suffix,
        degraded=frozenset(degraded)
        | frozenset(e["rotation"] for e in entries if e["degraded"]),
        files=tuple(entries),
    )

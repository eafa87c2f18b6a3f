"""Compact binary persistence for traces and key batches.

Two storage layouts serve two different consumers:

* :func:`save_trace` / :func:`load_trace` — a single compressed
  ``.npz`` container, the archival format.  Round-trips exactly,
  unlike the pcap path, which re-derives flows from synthesized
  headers.
* :func:`save_trace_arrays` / :func:`load_trace_arrays` — one raw
  ``.npy`` file per structural array inside a directory, written once
  and **memory-mapped** by readers.  This is the currency of the
  parallel sweep engine (:mod:`repro.parallel`): the parent process
  materializes each distinct workload trace once, and every worker
  process maps the per-packet ``order``/``timestamps`` arrays straight
  from the page cache instead of re-generating (or re-copying) the
  trace N times.

Both layouts store the 104-bit flow keys as two ``uint64`` half
arrays (the same split the batch engine uses), so keys round-trip
exactly at any width.  :func:`save_key_batch` / :func:`load_key_batch`
persist a standalone :class:`~repro.flow.batch.KeyBatch` (halves plus
optional per-packet sizes) the same way.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from pathlib import Path

import numpy as np

from repro.flow.batch import KeyBatch
from repro.hashing.mixers import keys_from_halves
from repro.traces.trace import Trace

_FORMAT_VERSION = 1

#: meta.json schema version of the directory (array) layout.
_ARRAY_FORMAT_VERSION = 1

_META_NAME = "meta.json"


def _npz_path(path: str | Path) -> Path:
    """Resolve the ``.npz`` suffix ``np.savez`` appends on save.

    ``np.savez_compressed("x")`` writes ``x.npz``; loading must accept
    the same suffix-less argument the saver was given.
    """
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        return path.with_name(path.name + ".npz")
    return path


def save_trace(trace: Trace, path: str | Path) -> None:
    """Save a trace to an ``.npz`` file.

    Args:
        trace: trace to persist.
        path: destination path (``.npz`` appended by numpy if missing).
    """
    lo, hi = trace.flow_batch().halves()
    payload = {
        "version": np.array([_FORMAT_VERSION]),
        "name": np.array([trace.name]),
        "key_lo": lo,
        "key_hi": hi,
        "order": trace.order,
    }
    if trace.timestamps is not None:
        payload["timestamps"] = trace.timestamps
    np.savez_compressed(Path(path), **payload)


def load_trace(path: str | Path) -> Trace:
    """Load a trace previously written by :func:`save_trace`.

    Raises:
        ValueError: if the file has an unknown format version.
    """
    with np.load(_npz_path(path), allow_pickle=False) as data:
        version = int(data["version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        keys = keys_from_halves(data["key_lo"], data["key_hi"])
        order = data["order"]
        ts = data["timestamps"] if "timestamps" in data else None
        name = str(data["name"][0])
    return Trace(keys, order, ts, name=name)


# ----------------------------------------------------------------------
# Directory (mmap-friendly) layout
# ----------------------------------------------------------------------
def save_trace_arrays(trace: Trace, dir_path: str | Path) -> Path:
    """Persist a trace as raw ``.npy`` arrays for memory-mapped loading.

    The write is atomic against concurrent writers: arrays land in a
    scratch directory first and are renamed into place in one step, so
    a reader (or a racing writer producing the same trace) never sees a
    half-written directory.  If ``dir_path`` already exists it is left
    untouched — the layout is content-keyed by its producers, so an
    existing directory already holds the same trace.

    Args:
        trace: trace to persist.
        dir_path: destination directory.

    Returns:
        The destination directory path.
    """
    dest = Path(dir_path)
    if (dest / _META_NAME).exists():
        return dest
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = dest.parent / f".{dest.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tmp.mkdir()
    try:
        lo, hi = trace.flow_batch().halves()
        np.save(tmp / "key_lo.npy", lo)
        np.save(tmp / "key_hi.npy", hi)
        np.save(tmp / "order.npy", trace.order)
        meta = {
            "version": _ARRAY_FORMAT_VERSION,
            "name": trace.name,
            "n_flows": trace.num_flows,
            "n_packets": len(trace),
            "timestamps": trace.timestamps is not None,
        }
        if trace.timestamps is not None:
            np.save(tmp / "timestamps.npy", trace.timestamps)
        # meta.json is written last: its presence marks a complete dir.
        (tmp / _META_NAME).write_text(json.dumps(meta, indent=2) + "\n")
        try:
            os.replace(tmp, dest)
        except OSError:
            if not (dest / _META_NAME).exists():
                raise
            # A concurrent producer won the rename; same content.
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return dest


def load_trace_arrays(dir_path: str | Path, mmap: bool = True) -> Trace:
    """Load a trace written by :func:`save_trace_arrays`.

    Args:
        dir_path: directory holding the arrays.
        mmap: map the per-packet arrays (``order``, ``timestamps``)
            read-only instead of copying them into memory — the mode
            sweep workers use.  The per-flow key halves are always read
            eagerly (they are converted to Python ints anyway).

    Raises:
        FileNotFoundError: if the directory is missing or incomplete.
        ValueError: on an unknown format version.
    """
    root = Path(dir_path)
    meta_path = root / _META_NAME
    if not meta_path.exists():
        raise FileNotFoundError(f"no trace arrays at {root}")
    meta = json.loads(meta_path.read_text())
    version = int(meta.get("version", -1))
    if version != _ARRAY_FORMAT_VERSION:
        raise ValueError(f"unsupported trace-array format version {version}")
    mode = "r" if mmap else None
    lo = np.load(root / "key_lo.npy")
    hi = np.load(root / "key_hi.npy")
    order = np.load(root / "order.npy", mmap_mode=mode)
    ts = None
    if meta.get("timestamps"):
        ts = np.load(root / "timestamps.npy", mmap_mode=mode)
    return Trace(keys_from_halves(lo, hi), order, ts, name=str(meta["name"]))


# ----------------------------------------------------------------------
# KeyBatch persistence
# ----------------------------------------------------------------------
def save_key_batch(batch: KeyBatch, path: str | Path) -> None:
    """Save a :class:`~repro.flow.batch.KeyBatch` to an ``.npz`` file.

    The 64-bit halves (materialized if still lazy) and the optional
    per-packet sizes are stored; the loaded batch rebuilds its
    Python-int key list from the halves on first read, so the round
    trip is exact.
    """
    lo, hi = batch.halves()
    payload = {
        "version": np.array([_FORMAT_VERSION]),
        "key_lo": lo,
        "key_hi": hi,
    }
    if batch.sizes is not None:
        payload["sizes"] = batch.sizes
    np.savez_compressed(Path(path), **payload)


def load_key_batch(path: str | Path) -> KeyBatch:
    """Load a :class:`~repro.flow.batch.KeyBatch` saved by
    :func:`save_key_batch`.

    Raises:
        ValueError: on an unknown format version.
    """
    with np.load(_npz_path(path), allow_pickle=False) as data:
        version = int(data["version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported key-batch format version {version}")
        lo = np.array(data["key_lo"])
        hi = np.array(data["key_hi"])
        sizes = np.array(data["sizes"]) if "sizes" in data else None
    return KeyBatch(None, lo, hi, sizes)

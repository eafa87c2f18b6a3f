"""Compact binary persistence for traces.

:func:`save_trace_arrays` / :func:`load_trace_arrays` store one raw
``.npy`` file per structural array inside a directory, written once
and **memory-mapped** by readers.  This is the currency of the
parallel sweep engine (:mod:`repro.parallel`): the parent process
materializes each distinct workload trace once, and every worker
process maps the per-packet ``order``/``timestamps`` arrays straight
from the page cache instead of re-generating (or re-copying) the
trace N times.  The round trip is exact, unlike the pcap path, which
re-derives flows from synthesized headers.

The 104-bit flow keys are stored as two ``uint64`` half arrays (the
same split the batch engine uses), so keys round-trip exactly at any
width.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from pathlib import Path

import numpy as np

from repro.hashing.mixers import keys_from_halves
from repro.traces.trace import Trace

#: meta.json schema version of the directory (array) layout.
_ARRAY_FORMAT_VERSION = 1

_META_NAME = "meta.json"


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


"""Key batches: the unit of work of the batch-update engine.

Flow keys are packed 104-bit integers (see :mod:`repro.flow.key`), so a
packet stream cannot live in a single ``np.uint64`` array.  A
:class:`KeyBatch` therefore carries the stream twice:

* ``keys`` — the Python-int sequence, used by code that stores or
  compares exact Python-int keys (dict-based collectors);
* ``lo`` / ``hi`` — the 64-bit halves of every key as ``np.uint64``
  arrays, the representation the vectorized mixers in
  :mod:`repro.hashing.mixers` and the table planes (HashFlow, HashPipe,
  count-min) consume.

Either side is built lazily from the other: collectors without a
vectorized update path never pay for the halves, and a batch built
from halves alone (a decoded datagram, a shard's sub-batch) rebuilds
the Python-int keys only if something reads them.

:func:`iter_key_chunks` is the engine's front door — it slices any
key source (list, tuple, ``np.ndarray``, prebuilt :class:`KeyBatch`,
or arbitrary iterable) into bounded chunks, converting numpy scalars
to Python ints exactly once per chunk (iterating an ``np.ndarray``
directly would yield ``np.int64`` objects whose arbitrary-precision
arithmetic is several times slower than built-in ints inside the
mixers).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

import numpy as np

from repro.hashing.mixers import keys_from_halves, split_keys

#: Default packets per chunk fed to ``FlowCollector.process_batch``.
#: Large enough to amortize numpy call overhead over the whole chunk,
#: small enough that the per-chunk index matrices stay cache-friendly.
DEFAULT_CHUNK_SIZE = 4096


class KeyBatch:
    """A batch of packed flow keys with lazily-built keys or halves.

    Args:
        keys: per-packet flow keys in arrival order (Python ints), or
            None to build the batch from ``lo``/``hi`` alone.
        lo: optional precomputed low halves (``np.uint64``, same length).
        hi: optional precomputed high halves (``np.uint64``, same length).
        sizes: optional per-packet byte sizes (``np.int64``, same
            length).  Collectors that track byte volumes (HashFlow's
            ``track_bytes``) read them from their batched update path;
            key-only consumers ignore them.
    """

    __slots__ = ("_keys", "sizes", "_lo", "_hi")

    def __init__(
        self,
        keys: Sequence[int] | None = None,
        lo: np.ndarray | None = None,
        hi: np.ndarray | None = None,
        sizes: np.ndarray | None = None,
    ):
        if (lo is None) != (hi is None):
            raise ValueError("lo and hi must be provided together")
        if keys is None and lo is None:
            raise ValueError("a KeyBatch needs keys or their halves")
        n = len(lo) if keys is None else len(keys)
        if lo is not None and (len(lo) != n or len(hi) != n):
            raise ValueError(
                f"halves length ({len(lo)}, {len(hi)}) != keys length {n}"
            )
        if sizes is not None:
            sizes = np.asarray(sizes, dtype=np.int64)
            if len(sizes) != n:
                raise ValueError(
                    f"sizes length {len(sizes)} != keys length {n}"
                )
        self._keys = keys
        self.sizes = sizes
        self._lo = lo
        self._hi = hi

    @classmethod
    def coerce(cls, keys) -> KeyBatch:
        """Wrap any key source in a :class:`KeyBatch` (no-op if already one)."""
        if isinstance(keys, cls):
            return keys
        if isinstance(keys, np.ndarray):
            return cls(keys.tolist())
        if isinstance(keys, (list, tuple)):
            return cls(keys)
        return cls(list(keys))

    @property
    def keys(self) -> Sequence[int]:
        """Per-packet Python-int keys, rebuilt from the halves on first read."""
        if self._keys is None:
            self._keys = keys_from_halves(self._lo, self._hi)
        return self._keys

    def __len__(self) -> int:
        return len(self._lo) if self._keys is None else len(self._keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self.keys)

    def _split(self) -> None:
        # split_keys sees a plain sequence (not self), so it builds the
        # arrays rather than recursing into halves().
        self._lo, self._hi = split_keys(self.keys)

    @property
    def lo(self) -> np.ndarray:
        """Low 64 bits of every key (``np.uint64``)."""
        if self._lo is None:
            self._split()
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        """High bits (bit 64 and up) of every key (``np.uint64``)."""
        if self._hi is None:
            self._split()
        return self._hi

    def halves(self) -> tuple[np.ndarray, np.ndarray]:
        """Both 64-bit half arrays, building them on first use."""
        if self._lo is None:
            self._split()
        return self._lo, self._hi

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[KeyBatch]:
        """Yield consecutive sub-batches of at most ``chunk_size`` keys.

        Whatever is materialized (keys, halves, sizes) is sliced, not
        rebuilt; halves and sizes slice as cheap numpy views.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        n = len(self)
        if n <= chunk_size:
            if n:
                yield self
            return
        keys, lo, hi = self._keys, self._lo, self._hi
        sizes = self.sizes
        for start in range(0, n, chunk_size):
            stop = start + chunk_size
            yield KeyBatch(
                None if keys is None else keys[start:stop],
                None if lo is None else lo[start:stop],
                None if hi is None else hi[start:stop],
                None if sizes is None else sizes[start:stop],
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        split = "split" if self._lo is not None else "lazy"
        return f"KeyBatch(len={len(self)}, {split})"


def iter_key_chunks(
    keys: Iterable[int], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[KeyBatch]:
    """Slice any packet-key source into :class:`KeyBatch` chunks.

    Accepts a prebuilt :class:`KeyBatch`, a ``np.ndarray`` (converted to
    Python ints once per chunk), a list/tuple (sliced, no copy of the
    whole stream), or any other iterable (drained through ``islice``).
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if isinstance(keys, KeyBatch):
        yield from keys.chunks(chunk_size)
        return
    if isinstance(keys, np.ndarray):
        for start in range(0, len(keys), chunk_size):
            yield KeyBatch(keys[start : start + chunk_size].tolist())
        return
    if isinstance(keys, (list, tuple)):
        n = len(keys)
        if n <= chunk_size:
            if n:
                yield KeyBatch(keys)
            return
        for start in range(0, n, chunk_size):
            yield KeyBatch(keys[start : start + chunk_size])
        return
    it = iter(keys)
    while True:
        chunk = list(islice(it, chunk_size))
        if not chunk:
            return
        yield KeyBatch(chunk)

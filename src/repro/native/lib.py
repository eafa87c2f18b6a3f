"""ctypes bindings over the built kernel shared object.

:class:`NativeKernels` wraps one loaded ``.so`` with typed prototypes
and numpy-array entry points.  The array-layout contract (shared with
``csrc/kernels.c`` and the table planes in :mod:`repro.core.maintable`):

* key batches arrive as contiguous ``np.uint64`` half arrays (exactly
  ``KeyBatch.lo`` / ``KeyBatch.hi``), packet sizes as ``np.int64``;
* table state is flat contiguous buffers — keys split into ``uint64``
  lo/hi planes, counters/bytes as ``int64`` — which the kernels mutate
  **in place**;
* multi-stage tables are stage-major slices of one flat buffer,
  addressed by per-stage ``(seed, offset, size)`` triples;
* update kernels return their cost-meter deltas ``(hashes, reads,
  writes[, promotions])`` through an ``int64[4]`` out-array; query
  kernels never meter.

Every entry point is bit-identical to the numpy/Python loop it
replaces; ``tests/test_native_kernels.py`` enforces this.
"""

from __future__ import annotations

import ctypes
from ctypes import POINTER, c_int64, c_uint64

import numpy as np

from repro.hashing.mixers import MASK64

from repro.native.build import ABI_VERSION, NativeBuildError

_U64P = POINTER(c_uint64)
_I64P = POINTER(c_int64)


def _u64(arr: np.ndarray) -> np.ndarray:
    """Validate/coerce a contiguous ``np.uint64`` array."""
    return np.ascontiguousarray(arr, dtype=np.uint64)


def _i64(arr: np.ndarray) -> np.ndarray:
    """Validate/coerce a contiguous ``np.int64`` array."""
    return np.ascontiguousarray(arr, dtype=np.int64)


def _p(arr: np.ndarray | None, ptr_type):
    """Array data pointer (NULL for None)."""
    if arr is None:
        return None
    return arr.ctypes.data_as(ptr_type)


class NativeKernels:
    """Typed handle over one loaded kernel shared object.

    Attributes:
        so_path: the loaded shared object.
        compiler: absolute path of the compiler that built it.
    """

    def __init__(self, so_path, compiler: str):
        self.so_path = so_path
        self.compiler = compiler
        lib = ctypes.CDLL(str(so_path))
        self._lib = lib

        lib.repro_native_abi_version.argtypes = ()
        lib.repro_native_abi_version.restype = c_int64
        abi = lib.repro_native_abi_version()
        if abi != ABI_VERSION:
            raise NativeBuildError(
                f"native kernel ABI mismatch: built {abi}, expected {ABI_VERSION}"
            )

        lib.repro_splitmix64_batch.argtypes = (_U64P, _U64P, c_int64)
        lib.repro_splitmix64_batch.restype = None
        lib.repro_mix128_batch.argtypes = (_U64P, _U64P, c_uint64, _U64P, c_int64)
        lib.repro_mix128_batch.restype = None
        lib.repro_bucket_matrix.argtypes = (
            _U64P, _U64P, _U64P, _U64P, c_int64, c_int64, _U64P,
        )
        lib.repro_bucket_matrix.restype = None
        lib.repro_hashflow_update.argtypes = (
            _U64P, _U64P, _I64P, c_int64,            # lo, hi, sizes|NULL, n
            _U64P, _I64P, _I64P, c_int64,            # seeds, offs, tbl_sizes, depth
            _U64P, _U64P, _I64P, _I64P,              # m_lo, m_hi, m_counts, m_bytes|NULL
            c_uint64, c_uint64, c_uint64,            # anc_seed, dig_seed, dig_mask
            c_int64, c_int64,                        # anc_cells, anc_max
            _U64P, _I64P,                            # a_digests, a_counts
            c_int64, c_int64,                        # promote_enabled, clear_promoted
            _I64P,                                   # meters[4]
        )
        lib.repro_hashflow_update.restype = None
        lib.repro_hashflow_query.argtypes = (
            _U64P, _U64P, c_int64,
            _U64P, _I64P, _I64P, c_int64,
            _U64P, _U64P, _I64P,
            c_uint64, c_uint64, c_uint64, c_int64,
            _U64P, _I64P,
            _I64P,
        )
        lib.repro_hashflow_query.restype = None
        lib.repro_hashpipe_update.argtypes = (
            _U64P, _U64P, c_int64,
            _U64P, c_int64, c_int64,
            _U64P, _U64P, _I64P,
            _I64P,
        )
        lib.repro_hashpipe_update.restype = None
        lib.repro_hashpipe_query.argtypes = (
            _U64P, _U64P, c_int64,
            _U64P, c_int64, c_int64,
            _U64P, _U64P, _I64P,
            _I64P,
        )
        lib.repro_hashpipe_query.restype = None
        lib.repro_countmin_update.argtypes = (
            _U64P, _U64P, c_int64,
            _U64P, c_int64, c_int64,
            c_int64, c_int64, c_int64,
            _I64P, _I64P,
        )
        lib.repro_countmin_update.restype = None
        lib.repro_countmin_query.argtypes = (
            _U64P, _U64P, c_int64,
            _U64P, c_int64, c_int64,
            _I64P, _I64P,
        )
        lib.repro_countmin_query.restype = None

    # ------------------------------------------------------------------
    # Mixers / bucket computation
    # ------------------------------------------------------------------
    def splitmix64_batch(self, x) -> np.ndarray:
        x = _u64(x)
        out = np.empty(len(x), dtype=np.uint64)
        self._lib.repro_splitmix64_batch(_p(x, _U64P), _p(out, _U64P), len(x))
        return out

    def mix128_batch(self, lo, hi, seed: int) -> np.ndarray:
        lo, hi = _u64(lo), _u64(hi)
        out = np.empty(len(lo), dtype=np.uint64)
        self._lib.repro_mix128_batch(
            _p(lo, _U64P), _p(hi, _U64P), c_uint64(seed & MASK64),
            _p(out, _U64P), len(lo),
        )
        return out

    def bucket_matrix(self, lo, hi, seeds, sizes) -> np.ndarray:
        """(d, N) bucket-index matrix; the native twin of
        ``HashFamily.bucket_matrix`` over presplit halves."""
        lo, hi = _u64(lo), _u64(hi)
        seeds, sizes = _u64(seeds), _u64(sizes)
        d, n = len(seeds), len(lo)
        out = np.empty((d, n), dtype=np.uint64)
        self._lib.repro_bucket_matrix(
            _p(lo, _U64P), _p(hi, _U64P), _p(seeds, _U64P), _p(sizes, _U64P),
            d, n, _p(out, _U64P),
        )
        return out

    # ------------------------------------------------------------------
    # HashFlow
    # ------------------------------------------------------------------
    def hashflow_update(
        self, lo, hi, pkt_sizes,
        seeds, offs, tbl_sizes,
        m_lo, m_hi, m_counts, m_bytes,
        anc_seed: int, dig_seed: int, dig_mask: int,
        anc_cells: int, anc_max: int,
        a_digests, a_counts,
        promote_enabled: bool, clear_promoted: bool,
    ) -> tuple[int, int, int, int]:
        """One batched Algorithm-1 pass; mutates the table planes in place.

        Returns:
            ``(hashes, reads, writes, promotions)`` meter deltas.
        """
        lo, hi = _u64(lo), _u64(hi)
        if pkt_sizes is not None:
            pkt_sizes = _i64(pkt_sizes)
        meters = np.zeros(4, dtype=np.int64)
        self._lib.repro_hashflow_update(
            _p(lo, _U64P), _p(hi, _U64P), _p(pkt_sizes, _I64P), len(lo),
            _p(seeds, _U64P), _p(offs, _I64P), _p(tbl_sizes, _I64P), len(seeds),
            _p(m_lo, _U64P), _p(m_hi, _U64P), _p(m_counts, _I64P),
            _p(m_bytes, _I64P),
            c_uint64(anc_seed), c_uint64(dig_seed), c_uint64(dig_mask),
            anc_cells, anc_max,
            _p(a_digests, _U64P), _p(a_counts, _I64P),
            int(promote_enabled), int(clear_promoted),
            _p(meters, _I64P),
        )
        return tuple(int(v) for v in meters)

    def hashflow_query(
        self, lo, hi,
        seeds, offs, tbl_sizes,
        m_lo, m_hi, m_counts,
        anc_seed: int, dig_seed: int, dig_mask: int, anc_cells: int,
        a_digests, a_counts,
    ) -> np.ndarray:
        lo, hi = _u64(lo), _u64(hi)
        out = np.empty(len(lo), dtype=np.int64)
        self._lib.repro_hashflow_query(
            _p(lo, _U64P), _p(hi, _U64P), len(lo),
            _p(seeds, _U64P), _p(offs, _I64P), _p(tbl_sizes, _I64P), len(seeds),
            _p(m_lo, _U64P), _p(m_hi, _U64P), _p(m_counts, _I64P),
            c_uint64(anc_seed), c_uint64(dig_seed), c_uint64(dig_mask), anc_cells,
            _p(a_digests, _U64P), _p(a_counts, _I64P),
            _p(out, _I64P),
        )
        return out

    # ------------------------------------------------------------------
    # HashPipe
    # ------------------------------------------------------------------
    def hashpipe_update(
        self, lo, hi, seeds, stages: int, cells: int, k_lo, k_hi, counts
    ) -> tuple[int, int, int]:
        lo, hi = _u64(lo), _u64(hi)
        meters = np.zeros(4, dtype=np.int64)
        self._lib.repro_hashpipe_update(
            _p(lo, _U64P), _p(hi, _U64P), len(lo),
            _p(seeds, _U64P), stages, cells,
            _p(k_lo, _U64P), _p(k_hi, _U64P), _p(counts, _I64P),
            _p(meters, _I64P),
        )
        return int(meters[0]), int(meters[1]), int(meters[2])

    def hashpipe_query(
        self, lo, hi, seeds, stages: int, cells: int, k_lo, k_hi, counts
    ) -> np.ndarray:
        lo, hi = _u64(lo), _u64(hi)
        out = np.empty(len(lo), dtype=np.int64)
        self._lib.repro_hashpipe_query(
            _p(lo, _U64P), _p(hi, _U64P), len(lo),
            _p(seeds, _U64P), stages, cells,
            _p(k_lo, _U64P), _p(k_hi, _U64P), _p(counts, _I64P),
            _p(out, _I64P),
        )
        return out

    # ------------------------------------------------------------------
    # Count-min
    # ------------------------------------------------------------------
    def countmin_update(
        self, lo, hi, seeds, depth: int, width: int,
        max_count: int, amount: int, conservative: bool, rows,
    ) -> tuple[int, int, int]:
        lo, hi = _u64(lo), _u64(hi)
        meters = np.zeros(4, dtype=np.int64)
        self._lib.repro_countmin_update(
            _p(lo, _U64P), _p(hi, _U64P), len(lo),
            _p(seeds, _U64P), depth, width,
            max_count, amount, int(conservative),
            _p(rows, _I64P), _p(meters, _I64P),
        )
        return int(meters[0]), int(meters[1]), int(meters[2])

    def countmin_query(
        self, lo, hi, seeds, depth: int, width: int, rows
    ) -> np.ndarray:
        lo, hi = _u64(lo), _u64(hi)
        out = np.empty(len(lo), dtype=np.int64)
        self._lib.repro_countmin_query(
            _p(lo, _U64P), _p(hi, _U64P), len(lo),
            _p(seeds, _U64P), depth, width,
            _p(rows, _I64P), _p(out, _I64P),
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NativeKernels(so={self.so_path}, cc={self.compiler})"

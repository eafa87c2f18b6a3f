"""Integer mixing primitives used to build independent hash functions.

The measurement algorithms in this package (HashFlow, HashPipe,
ElasticSketch, FlowRadar, ...) only require families of *independent,
uniform* hash functions over flow identifiers.  On P4 hardware these are
CRC polynomials with different seeds; here we use the well-studied
splitmix64 finalizer applied to the key XORed and multiplied with
per-function seed material.  It is deterministic, seedable, fast in
pure Python, and passes the avalanche sanity checks in
``tests/test_hashing_mixers.py``.

All arithmetic is performed modulo 2**64, mirroring unsigned 64-bit
integer behaviour.

Each mixer has a ``*_batch`` twin operating on ``np.uint64`` arrays.
The batch variants are bit-identical to the scalar ones (numpy's
fixed-width integer arithmetic wraps modulo 2**64 exactly like the
masked Python-int arithmetic here) and amortize the per-call Python
overhead across a whole packet chunk — they are the substrate of the
batch-update engine used by the collector hot paths.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

# Multiplicative constants from splitmix64 (Steele, Lea, Flood 2014).
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_M1 = 0xBF58476D1CE4E5B9
_SM64_M2 = 0x94D049BB133111EB

# The same constants as np.uint64, prebuilt so the batch mixers do no
# per-call conversions.
_U64_GAMMA = np.uint64(_SM64_GAMMA)
_U64_SM_M1 = np.uint64(_SM64_M1)
_U64_SM_M2 = np.uint64(_SM64_M2)
_U64_ZERO = np.uint64(0)
_SHIFT_27 = np.uint64(27)
_SHIFT_30 = np.uint64(30)
_SHIFT_31 = np.uint64(31)


def splitmix64(x: int) -> int:
    """Finalize ``x`` with the splitmix64 mixing function.

    This is a bijection on 64-bit integers with full avalanche: flipping
    any input bit flips each output bit with probability ~1/2.

    Args:
        x: arbitrary (possibly >64-bit) non-negative integer; only the low
           64 bits participate after the initial masking.

    Returns:
        A uniformly mixed 64-bit integer.
    """
    x = (x + _SM64_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _SM64_M1) & MASK64
    x = ((x ^ (x >> 27)) * _SM64_M2) & MASK64
    return x ^ (x >> 31)


def mix128(key: int, seed: int) -> int:
    """Mix a key of up to 128 bits with a 64-bit seed into 64 bits.

    Flow identifiers in this package are 104-bit packed 5-tuples, which do
    not fit a single 64-bit word.  We fold the high bits in with an odd
    multiplier before the final avalanche so that every input bit of the
    key influences the result.

    Args:
        key: non-negative integer, up to 128 bits.
        seed: per-hash-function seed material.

    Returns:
        A 64-bit mixed value; for a fixed seed the map ``key -> value``
        behaves like an independent uniform hash function.
    """
    lo = key & MASK64
    hi = (key >> 64) & MASK64
    h = splitmix64(lo ^ seed)
    if hi:
        h = splitmix64(h ^ (hi * _SM64_GAMMA & MASK64))
    return h


def splitmix64_batch(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a ``np.uint64`` array.

    Bit-identical to the scalar mixer: for every element,
    ``splitmix64_batch(a)[i] == splitmix64(int(a[i]))``.

    Args:
        x: array of 64-bit values (coerced to ``np.uint64``).

    Returns:
        New ``np.uint64`` array of mixed values.
    """
    x = np.asarray(x, dtype=np.uint64)
    x = x + _U64_GAMMA
    x = (x ^ (x >> _SHIFT_30)) * _U64_SM_M1
    x = (x ^ (x >> _SHIFT_27)) * _U64_SM_M2
    return x ^ (x >> _SHIFT_31)


def mix128_batch(lo: np.ndarray, hi: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized :func:`mix128` over keys split into 64-bit halves.

    Bit-identical to the scalar mixer, including the conditional
    high-half fold: elements with ``hi == 0`` take exactly the scalar
    single-round path.

    Args:
        lo: low 64 bits of every key (``np.uint64`` array).
        hi: high bits (bit 64 and up) of every key (``np.uint64`` array).
        seed: per-hash-function seed material.

    Returns:
        ``np.uint64`` array of 64-bit mixed values.
    """
    lo = np.asarray(lo, dtype=np.uint64)
    hi = np.asarray(hi, dtype=np.uint64)
    h = splitmix64_batch(lo ^ np.uint64(seed & MASK64))
    nonzero = hi != _U64_ZERO
    if nonzero.any():
        folded = splitmix64_batch(h ^ (hi * _U64_GAMMA))
        h = np.where(nonzero, folded, h)
    return h


def split_keys(keys) -> tuple[np.ndarray, np.ndarray]:
    """Split up-to-128-bit Python-int keys into ``np.uint64`` half arrays.

    Accepts any object exposing ``halves()`` (e.g. a
    :class:`~repro.flow.batch.KeyBatch`, whose precomputed halves are
    reused), otherwise builds the arrays from the int sequence.

    Returns:
        ``(lo, hi)`` arrays suitable for :func:`mix128_batch`.
    """
    halves = getattr(keys, "halves", None)
    if halves is not None:
        return halves()
    if not isinstance(keys, (list, tuple)):
        keys = list(keys)
    n = len(keys)
    lo = np.fromiter((k & MASK64 for k in keys), np.uint64, count=n)
    hi = np.fromiter((k >> 64 for k in keys), np.uint64, count=n)
    return lo, hi


def keys_from_halves(lo: np.ndarray, hi: np.ndarray) -> list[int]:
    """Rebuild exact Python-int keys from their 64-bit halves.

    The inverse of :func:`split_keys`.
    """
    return [(h << 64) | l for l, h in zip(lo.tolist(), hi.tolist())]


def _new_keys(column: np.ndarray) -> np.ndarray:
    """True at each row of a sorted column that differs from the row before."""
    new = np.empty(len(column), dtype=bool)
    new[:1] = True
    np.not_equal(column[1:], column[:-1], out=new[1:])
    return new


def key_groups(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows of key halves by packed flow key.

    Returns:
        ``(order, starts)``: ``order`` sorts the rows ascending by
        packed key, stable, so the rows of one key keep their relative
        order: it is ``np.lexsort((lo, hi))`` element for element.
        ``starts`` holds the sorted position of each distinct key's
        first row: the offsets ``np.ufunc.reduceat`` folds a group at.

    With ``w`` the bit width of the largest ``hi``, a key has ``64 + w``
    bits.  The rows sort by its top 64 bits with one stable ``argsort``
    (timsort, which merges the sorted runs of concatenated summaries
    instead of re-sorting them).  Only when tops repeat does a second
    stable ``argsort`` order the rows by the top's dense rank and the
    ``w`` bits below it, packed into one ``uint64``.  The rank of ``n``
    rows with a repeat is at most ``n - 1``, so the pack fits when
    ``n <= 2**(64 - w)``: 2**24 rows of 104-bit keys.  Wider inputs
    take ``np.lexsort``.
    """
    n = len(lo)
    width = int(hi.max()).bit_length() if n else 0
    if n > 1 << (64 - width):
        order = np.lexsort((lo, hi))
        new = _new_keys(lo[order])
        new |= _new_keys(hi[order])
        return order, np.flatnonzero(new)
    # numpy shifts by 64 or more give 0, so widths 0 and 64 need no branch.
    top = hi << np.uint64(64 - width)
    top |= lo >> np.uint64(width)
    order = np.argsort(top, kind="stable")
    new = _new_keys(top[order])
    del top
    if width and not new.all():
        # 1-based dense rank of each sorted row's top, then its low bits.
        pack = np.cumsum(new, dtype=np.uint64)
        pack <<= np.uint64(width)
        low = lo[order]
        low &= np.uint64((1 << width) - 1)
        pack |= low
        del low
        ties = np.argsort(pack, kind="stable")
        order = order[ties]
        new = _new_keys(pack[ties])
    return order, np.flatnonzero(new)


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Derive ``count`` well-separated 64-bit seeds from one master seed.

    Seeds are produced by iterating splitmix64, the construction the
    original splitmix64 paper recommends for seeding parallel generators.

    Args:
        master_seed: any non-negative integer.
        count: number of seeds to derive; must be >= 0.

    Returns:
        List of ``count`` distinct 64-bit seeds (distinct for any
        reasonable count because splitmix64 is a bijection on a
        2**64-period sequence).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    seeds = []
    state = master_seed & MASK64
    for _ in range(count):
        state = (state + _SM64_GAMMA) & MASK64
        seeds.append(splitmix64(state))
    return seeds

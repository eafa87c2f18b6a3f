"""Hashing substrate: seeded mixers, hash families and digests.

This package provides the independent uniform hash functions that every
measurement algorithm in :mod:`repro` is built on, replacing the CRC
units a P4 switch would use.
"""

from repro.hashing.digest import DEFAULT_DIGEST_BITS, DigestFunction
from repro.hashing.families import HashFamily, HashFunction
from repro.hashing.mixers import (
    MASK64,
    derive_seeds,
    mix128,
    mix128_batch,
    split_keys,
    splitmix64,
    splitmix64_batch,
)

__all__ = [
    "MASK64",
    "DEFAULT_DIGEST_BITS",
    "DigestFunction",
    "HashFamily",
    "HashFunction",
    "derive_seeds",
    "mix128",
    "mix128_batch",
    "split_keys",
    "splitmix64",
    "splitmix64_batch",
]

"""Seeded randomness helpers.

Every stochastic piece of the library (workload generators, traffic sources,
hash placement) takes an explicit ``numpy.random.Generator``.  These helpers
create them from integer seeds and split independent streams from a parent
so sub-experiments never share state accidentally.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

DEFAULT_SEED = 0xADC9
"""Library-wide default seed (spells "ADCP" if you squint)."""


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a PCG64 generator seeded with ``seed`` (or the default)."""
    if seed is None:
        seed = DEFAULT_SEED
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def split_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``count`` independent child generators from ``rng``.

    Children are seeded from the parent's stream, so the split is itself
    deterministic for a given parent state.
    """
    if count < 1:
        raise ConfigError(f"cannot split {count} generators")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """FNV-1a walk over ``data``, starting from ``state``.

    The walk is a left fold, so ``fnv1a64(tail, fnv1a64(prefix))`` equals
    ``fnv1a64(prefix + tail)``: callers that hash many strings with one
    fixed prefix walk the prefix once and keep its state.
    """
    h = state
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def fmix64(h: int) -> int:
    """murmur3's fmix64 avalanche, so every output bit depends on every
    input bit."""
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


def stable_hash64(value: int | str | bytes) -> int:
    """Deterministic 64-bit hash, stable across processes.

    Python's builtin ``hash`` is salted per process; placement decisions
    (which central pipeline a key lands on) must be reproducible, so the
    library uses FNV-1a instead — followed by a murmur3-style avalanche
    finalizer (:func:`fmix64`).  The finalizer matters: raw FNV-1a's low
    bits mod small powers of two depend only on the input bytes mod the
    same power, which would send every 16-aligned chunk key to the same
    partition.  A string is hashed as its UTF-8 bytes, so
    ``fmix64(fnv1a64(tail.encode(), fnv1a64(prefix.encode())))`` equals
    ``stable_hash64(prefix + tail)``.
    """
    if isinstance(value, int):
        data = value.to_bytes(16, "little", signed=True)
    elif isinstance(value, str):
        data = value.encode("utf-8")
    else:
        data = value
    return fmix64(fnv1a64(data))

"""Process-stable 64-bit hashes for shuffle keys and sketches.

Every hash here gives the same value in every worker process (never
Python's per-process salted ``hash()``), so two sides of an exchange that
hash the same key independently land in the same bucket. This module
imports only ``georay.process_state`` from georay: ``runtime`` and ``ops``
both import it at module level (worker-executed code, CLAUDE.md) without
an import cycle.

- :func:`splitmix64` — the 64-bit mixer (Steele et al., "Fast splittable
  pseudorandom number generators", OOPSLA 2014); ``ops.sketch`` holds its
  bit-identical SQL twin.
- :func:`fingerprint64` — rolling polynomial hash over UTF-8 bytes.
- :func:`key_hash` — one key column: integers through splitmix64, strings
  through the fingerprint.
"""

from __future__ import annotations

import numpy as np

from georay.process_state import per_process

_U = np.uint64

# order-sensitive mix of per-column hashes: h = h * _MIX + column_hash
MIX = _U(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wrapping arithmetic)."""
    z = np.asarray(x).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += _U(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
        z ^= z >> _U(31)
    return z


_FP_BASE = np.uint64(1099511628211)
_FP_SEED = np.uint64(0xCBF29CE484222325)


def _fp_pow_cache() -> dict[int, np.ndarray]:
    return per_process("georay.hashing.fp_powers", dict)


def fp_powers(n: int) -> np.ndarray:
    """[BASE^0 .. BASE^n] table (mod 2^64), one per worker process, grown
    on demand."""
    cache = _fp_pow_cache()
    cached = cache.get(0)
    if cached is None or cached.size < n + 1:
        size = max(n + 1, 1024)
        with np.errstate(over="ignore"):
            p = np.empty(size, dtype=np.uint64)
            acc = np.uint64(1)
            for j in range(size):
                p[j] = acc
                acc *= _FP_BASE
        cache[0] = p
        cached = p
    return cached


def fingerprint64(texts: np.ndarray, prefix: int | None = None) -> np.ndarray:
    """Rolling polynomial hash over UTF-8 bytes (one uint64 per doc), with a
    shared cached powers table (no per-doc table rebuild). ``prefix`` hashes
    only the first N chars (dedup-by-prefix key). Grouping by this
    fingerprint ≡ grouping by the (prefix of the) text, up to 2^-64
    collisions — the SQL oracle groups by the text itself."""
    out = np.empty(texts.shape[0], dtype=np.uint64)
    max_len = max((len(s[:prefix] if prefix else s) for s in texts), default=0)
    powers = fp_powers(max_len * 4 + 8)  # utf-8 can be up to 4 B/char
    with np.errstate(over="ignore"):
        for i, s in enumerate(texts):
            b = s[:prefix].encode() if prefix else s.encode()
            arr = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
            n = arr.size
            out[i] = ((arr * powers[n - 1 :: -1][:n]).sum(dtype=np.uint64)
                      + _FP_SEED * powers[n])
    return out


def key_hash(arr: np.ndarray) -> np.ndarray:
    """uint64 hash of a key column (int-like via splitmix64, strings via
    the rolling fingerprint)."""
    if arr.dtype.kind in "iu":
        return splitmix64(arr.astype(np.int64).view(np.uint64))
    return fingerprint64(arr.astype(object))

"""Per-key execution helpers for ``runtime.by_key`` bodies.

``runtime.by_key(ds, keys, fn, schema)`` is the one per-key operator: it
hash-packs rows into ``P ≈ cluster CPUs`` buckets, exchanges them with a
fixed-boundary sort, and calls ``fn`` ONCE PER BUCKET on one pyarrow table
holding every row of each key that hashed there. One call per bucket is
the point: Ray's per-group UDF call paid one Python call + one pandas
DataFrame (~50-100 µs) PER DISTINCT KEY, which at 10⁸ keys is hours of
interpreter overhead cluster-wide. Bodies vectorize ACROSS keys with
segmented numpy — one lexsort puts every key's rows in a contiguous run,
and per-key reductions become reduceat/cumsum-difference over run
boundaries (the helpers below). Bodies that need one key at a time wrap
themselves in ``runtime.per_key``.

Scale contract: one bucket fits a worker, as for ``runtime.join``. A
skewed single key still lands in one bucket, as in any key-hash shuffle;
the bucket count only keeps the AVERAGE bucket within memory.

Helpers here are numpy-only and run in Ray workers — module-level
imports only: an import inside a function fails in a worker started
outside the checkout.
"""

from __future__ import annotations

import numpy as np


def segment_starts(codes_sorted: np.ndarray) -> np.ndarray:
    """Start index of each run in an already-sorted code array."""
    if codes_sorted.size == 0:
        return np.empty(0, dtype=np.int64)
    new = np.empty(codes_sorted.size, dtype=bool)
    new[0] = True
    new[1:] = codes_sorted[1:] != codes_sorted[:-1]
    return np.flatnonzero(new).astype(np.int64)


def segment_counts(starts: np.ndarray, n: int) -> np.ndarray:
    """Run lengths from segment starts (total length ``n``)."""
    return np.diff(np.append(starts, n)).astype(np.int64)


def local_cumsum(values: np.ndarray, starts: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """Per-segment inclusive cumulative sum via the global-cumsum /
    repeated-base-subtraction trick (int-exact, no per-segment loop)."""
    if values.size == 0:
        return values.astype(np.int64)
    run = np.cumsum(values.astype(np.int64))
    base = np.concatenate(([0], run[starts[1:] - 1])) if starts.size else run[:0]
    return run - np.repeat(base, counts)


def position_in_segment(starts: np.ndarray, counts: np.ndarray,
                        n: int) -> np.ndarray:
    """0-based position of each row within its segment."""
    return np.arange(n, dtype=np.int64) - np.repeat(starts, counts)

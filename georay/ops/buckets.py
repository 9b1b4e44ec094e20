"""Hash-bucketed per-key execution — the VERDICT-r3 fix for the per-key
``map_groups`` anti-pattern in the event-analytics family.

``ds.groupby(key).map_groups(per_key)`` costs one Python call + one pandas
DataFrame construction (~50-100 µs) PER DISTINCT KEY and makes Ray's
sort-based shuffle range-partition millions of tiny groups; at 10⁸ keys
that is hours of pure interpreter overhead cluster-wide. The repo's rank.py
/ knn.py idiom fixes both: group by ``hash(key) % num_buckets`` (a few
hundred pandas groups TOTAL), then vectorize ACROSS keys inside each bucket
with segmented numpy — one lexsort per bucket puts every key's rows in a
contiguous run, and per-key reductions become reduceat/cumsum-difference
over run boundaries.

Scale contract (replaces the old one-KEY-fits-a-worker contract): one
BUCKET's rows must fit a worker — size ``num_buckets ≈ total_rows /
(worker_heap / row_width)``. Skewed single keys still land in one bucket,
same as any key-hash shuffle; the bucket count only has to keep the
AVERAGE bucket within memory.

Helpers here are numpy-only and worker-executed — module-level imports
only (CLAUDE.md invariant).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# module level: worker-executed (foreign-cwd drivers)
from georay.hashing import key_hash


def bucket_of(arr: np.ndarray, num_buckets: int) -> np.ndarray:
    """int64 bucket id in [0, num_buckets) for a key column."""
    return (key_hash(arr) % np.uint64(num_buckets)).astype(np.int64)


def append_bucket(t: pa.Table, key_col: str, num_buckets: int) -> pa.Table:
    """Arrow batch -> same batch + ``_bucket`` column."""
    b = bucket_of(t[key_col].to_numpy(zero_copy_only=False), num_buckets)
    return t.append_column("_bucket", pa.array(b))


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

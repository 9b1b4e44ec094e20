"""Distributed per-group top-k ranking (the ROW_NUMBER() <= k shape).

A global sort is the wrong plan for "top N rows per group": it range-
partitions EVERY row. Here the exchange carries at most ``k × groups ×
batches`` survivor rows:

- local phase (``map_batches``): each batch keeps only its own top-k per
  group — one vectorized ``sort_values`` + ``groupby.head`` per batch, no
  per-group Python loop;
- final phase: survivors hash-bucket by group key (``num_buckets`` pandas
  groups TOTAL, each ranking many groups in one sort + cumcount — the
  knn.py merge idiom), emitting ``rank`` 1..k per group.

Scale contract: ``k × |groups|`` fits one worker ONLY per bucket — buckets
split the group space, so the global survivor set never assembles in one
place. Callers must pass ``sort_cols`` that total-order rows within a
group (include a unique id as the last key) or ranks are nondeterministic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


# module level: worker-executed (foreign-cwd drivers, CLAUDE.md)
from georay.hashing import MIX, key_hash
from georay.runtime import strip_metadata


def grouped_topk(ds, group_cols: list[str], sort_cols: list[str],
                 ascending: list[bool], k: int, num_buckets: int = 8,
                 rank_col: str = "rank"):
    """Top-k rows per group by ``sort_cols``/``ascending`` with a dense
    1..k ``rank_col``. Output schema = input columns + rank."""

    by = list(group_cols) + list(sort_cols)
    asc = [True] * len(group_cols) + list(ascending)

    def local_topk(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(by, ascending=asc, kind="quicksort")
        out = df.groupby(list(group_cols), sort=False).head(k)
        # metadata-free Arrow return: a raw pandas return round-trips
        # through pa.Table.from_pandas, whose metadata blob makes the block
        # schema unhashable and defeats Ray's block-schema dedup
        return strip_metadata(
            pa.Table.from_pandas(out, preserve_index=False)
        )

    def add_bucket(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in group_cols:  # order-sensitive mix, one pass per key col
                h = h * MIX + key_hash(
                    t[c].to_numpy(zero_copy_only=False)
                )
        bucket = (h % np.uint64(num_buckets)).astype(np.int64)
        return t.append_column("_bucket", pa.array(bucket))

    def final_topk(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(by, ascending=asc, kind="quicksort")
        out = g.groupby(list(group_cols), sort=False).head(k).copy()
        out[rank_col] = (
            out.groupby(list(group_cols), sort=False).cumcount().to_numpy() + 1
        )
        out = out.drop(columns=["_bucket"]).reset_index(drop=True)
        return strip_metadata(pa.Table.from_pandas(out, preserve_index=False))

    return (
        ds.map_batches(local_topk, batch_format="pandas")
        .map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(final_topk, batch_format="pandas")
    )

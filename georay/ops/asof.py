"""As-of join (most-recent-match join) — the temporal analogue of the
cell-keyed spatial join: for every left row, the single right row with the
greatest timestamp ≤ the left row's timestamp, within the same key.

Physical plan (Ray Data has no native as-of join): tag both sides, union,
co-group by key with ONE ``runtime.by_key`` exchange (one call per bucket,
not one Python call per key), then a bucket-wide vectorized match: one lexsort
interleaves both sides of every key, and a rebased running right-count
turns "latest right ≤ left ts" into an index into the bucket's sorted
right rows. Inner semantics: left rows with no prior right row are
dropped (DuckDB ``ASOF JOIN`` parity).

The op returns the MATCH MAPPING ``(by, left ts, matched right ts)`` —
payload columns reattach with ordinary equi-joins on ``(by, ts)``
(broadcast or shuffle, caller's choice); keeping the union schema to three
columns is what lets both sides share one exchange.

Partitioning assumption: one BUCKET's rows must fit a worker (the
``runtime.by_key`` contract); sub-bucket by time range if a single key's
history outgrows a worker on its own.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay.runtime import by_key, join


def interval_join(
    points_ds,
    intervals_ds,
    by: str,
    point_ts: str = "ts",
    start_col: str = "start",
    end_col: str = "end",
    bucket: int = 86_400,
    num_partitions: int | None = None,
):
    """1:N containment join: every (point, interval) pair with
    ``start <= ts < end`` sharing the ``by`` key — the temporal RANGE join.

    Physical plan: intervals explode to every time bucket they overlap
    (vectorized range-expand, span/bucket + 1 rows each), points key by
    their single bucket, one hash equi-join on (key, bucket), then the
    exact half-open containment filter. Choose ``bucket`` near the typical
    interval span: too small explodes intervals, too large bloats join
    fan-in. Output: ``by``, ``point_ts``, ``start_col``, ``end_col``."""
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    def prep_points(t: pa.Table) -> pa.Table:
        s = t[point_ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                by: t[by],
                "_ts": pa.array(s),
                "_b": pa.array(s // bucket),
            }
        )

    def prep_intervals(t: pa.Table) -> pa.Table:
        st = t[start_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        en = t[end_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        b0 = st // bucket
        b1 = np.maximum(en - 1, st) // bucket
        counts = (b1 - b0 + 1).astype(np.int64)
        total = int(counts.sum())
        idx = np.repeat(np.arange(st.shape[0]), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        bks = np.arange(total, dtype=np.int64) - starts + np.repeat(b0, counts)
        base = t.select([by]).take(pa.array(idx))
        return pa.table(
            {
                by: base[by],
                "_start": pa.array(st[idx]),
                "_end": pa.array(en[idx]),
                "_b": pa.array(bks),
            }
        )

    joined = join(
        points_ds.map_batches(prep_points, batch_format="pyarrow"),
        intervals_ds.map_batches(prep_intervals, batch_format="pyarrow"),
        "inner", on=(by, "_b"), num_partitions=num_partitions,
    )

    def refine(t: pa.Table) -> pa.Table:
        ts = t["_ts"].to_numpy(zero_copy_only=False)
        st = t["_start"].to_numpy(zero_copy_only=False)
        en = t["_end"].to_numpy(zero_copy_only=False)
        keep = (st <= ts) & (ts < en)
        out = t.filter(pa.array(keep))
        return pa.table(
            {
                by: out[by],
                point_ts: out["_ts"],
                start_col: out["_start"],
                end_col: out["_end"],
            }
        )

    return joined.map_batches(refine, batch_format="pyarrow")


def asof_join(
    left_ds,
    right_ds,
    by: str,
    left_ts: str = "ts",
    right_ts: str = "ts",
    suffix: str = "_r",
):
    """For each left row: the latest right timestamp ≤ its own, per key.

    Output columns: ``by``, ``left_ts``, ``{right_ts}{suffix}``.
    Timestamps must cast to int64 (cast dates/decimals upstream). Left
    rows keep multiplicity (duplicates join independently).

    Physical plan: one ``runtime.by_key`` exchange (one call per
    bucket); inside a bucket one lexsort by ``(key, ts,
    right-before-left)`` interleaves both sides of every key, a running
    right-row count (cumsum, rebased per key run) gives each left row
    the NUMBER of rights at-or-before it, and that
    count minus one indexes straight into the bucket's (key, ts)-sorted
    right rows — the per-key searchsorted, done for all keys in four
    vectorized passes, no per-key Python call."""
    import pandas as pd

    from georay.ops import buckets as bk

    def prep(role: int, ts_col: str):
        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table(
                {
                    "_role": pa.array(np.full(n, role, dtype=np.int8)),
                    by: t[by],
                    "_ts": t[ts_col].cast(pa.int64()),
                }
            )

        return fn

    u = left_ds.map_batches(prep(0, left_ts), batch_format="pyarrow").union(
        right_ds.map_batches(prep(1, right_ts), batch_format="pyarrow")
    )

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        keys = g[by].to_numpy()
        codes, _ = pd.factorize(keys)
        ts = g["_ts"].to_numpy(np.int64)
        is_r = g["_role"].to_numpy() == 1
        # rights BEFORE lefts at equal (key, ts): searchsorted side="right"
        order = np.lexsort((np.where(is_r, 0, 1), ts, codes))
        c = codes[order]
        t_s = ts[order]
        r_s = is_r[order]
        # running count of right rows, rebased at each key run start
        cnt = np.cumsum(r_s.astype(np.int64))
        starts = bk.segment_starts(c)
        counts = bk.segment_counts(starts, c.size)
        base = np.concatenate(([0], cnt[starts[1:] - 1])) if starts.size \
            else cnt[:0]
        base_rep = np.repeat(base, counts)
        n_before = cnt - base_rep  # rights with ts <= this row, same key
        # bucket-global rank of a left row's matched right: rights earlier
        # in the sorted array are exactly (rights in earlier key runs) +
        # (rights at-or-before within this run)
        rt_sorted = t_s[r_s]  # rights in (key, ts) order
        l_idx = np.flatnonzero(~r_s)
        pos = base_rep[l_idx] + n_before[l_idx] - 1
        hit = n_before[l_idx] > 0
        l_hit = l_idx[hit]
        return pd.DataFrame(
            {
                by: keys[order][l_hit],
                left_ts: t_s[l_hit],
                f"{right_ts}{suffix}": rt_sorted[pos[hit]],
            }
        )

    return by_key(u, by, per_bucket, lambda s: pa.schema(
        [s.field(by), (left_ts, pa.int64()),
         (f"{right_ts}{suffix}", pa.int64())]))

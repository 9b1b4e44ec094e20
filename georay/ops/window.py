"""Stream-shaped windowed aggregates over an event log (ray_guide
"Streaming-shaped workloads": Ray Data is batch — windows are groupbys over
(key, window) with per-group pandas for the order-dependent variants).

Ordering assumption: tumbling windows need none (pure bucketing); sliding
windows need none (each event expands to the windows containing it —
flat-map style, vectorized); session windows sort by ts WITHIN each key
group (the shuffle co-locates a key's events, map_groups sorts locally).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay.runtime import (
    adaptive_partitions, group_agg, join, table_from_pandas,
)

US_PER_DAY = 86_400 * 1_000_000


def _assert_ts_scale(dtype, ts_scale_us: int, where: str) -> None:
    """Loud guard for the silent-nanoseconds hazard: casting a datetime64 /
    timestamp column to int64 yields raw ticks in the COLUMN's unit, and
    ``ts_scale_us`` is the ticks-per-output-unit divisor (callers also use
    it to coarsen us ticks to seconds, e.g. 1_000_000 with gaps given in
    seconds — so any multiple of the ns→us factor is legitimate). The one
    certainly-wrong shape this catches: ns-tick columns with a divisor not
    divisible by 1000 (above all the default 1, which is silently 1000×
    off — ADVICE r4). Plain integer columns pass through unchecked; ms/s
    timestamp columns are rejected as unsupported. Accepts a numpy/pandas
    dtype or a pyarrow DataType."""
    unit = None
    if isinstance(dtype, pa.DataType):
        if pa.types.is_timestamp(dtype):
            unit = dtype.unit
    else:
        try:
            np_dt = np.dtype(dtype)
            if np_dt.kind == "M":
                unit = np.datetime_data(np_dt)[0]
        except TypeError:
            unit = getattr(dtype, "unit", None)  # pandas DatetimeTZDtype
    if unit is None:
        return
    if unit not in ("ns", "us"):
        raise ValueError(
            "%s: unsupported timestamp unit %r — convert to timestamp[us] "
            "(or [ns] with ts_scale_us a multiple of 1000)" % (where, unit)
        )
    if unit == "ns" and ts_scale_us % 1000 != 0:
        raise ValueError(
            "%s: ts column has ns ticks, so ts_scale_us must be a multiple "
            "of 1000 (got %d) — the int64 cast would otherwise be silently "
            "wrong by 1000x" % (where, ts_scale_us)
        )


_WINDOW_AGGS = {"n": ("count", None), "sum_val_milli": ("sum", "milli")}


def _milli(t: pa.Table, value_col: str) -> np.ndarray:
    v = t[value_col].to_numpy(zero_copy_only=False)
    return np.floor(v * 1000).astype(np.int64)


def tumbling(ds, key_col: str, ts_col: str, value_col: str,
             width_us: int = US_PER_DAY):
    """(key, window) → n, int-exact value sum."""

    def rows(t: pa.Table) -> pa.Table:
        _assert_ts_scale(t[ts_col].type, 1, "tumbling")  # requires us ticks
        us = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({key_col: t[key_col], "win": us // width_us,
                         "milli": _milli(t, value_col)})

    rows_ds = ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True)
    return group_agg(rows_ds, [key_col, "win"], _WINDOW_AGGS)


def sliding(ds, key_col: str, ts_col: str, value_col: str,
            width_us: int, slide_us: int, ts_scale_us: int = 1):
    """Sliding windows: each event replicated into the ``width/slide``
    windows covering it (vectorized np.repeat explode — 1 row → w/s rows),
    then the same aggregate keyed by window start."""
    if width_us % slide_us:
        raise ValueError("width must be a multiple of slide")
    n_covers = width_us // slide_us

    def rows(t: pa.Table) -> pa.Table:
        _assert_ts_scale(t[ts_col].type, ts_scale_us, "sliding")
        us = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False) // ts_scale_us
        milli = _milli(t, value_col)
        # windows with start w*slide contain ts iff start <= ts < start+width
        last_start = (us // slide_us) * slide_us
        offs = (np.arange(n_covers) * slide_us)[None, :]
        starts = last_start[:, None] - offs  # (n, n_covers)
        valid = starts >= 0
        rep = np.repeat(np.arange(us.size), n_covers).reshape(-1)[valid.reshape(-1)]
        win = starts.reshape(-1)[valid.reshape(-1)]
        return pa.table({key_col: t[key_col].take(rep), "win_start": win,
                         "milli": milli[rep]})

    rows_ds = ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True)
    return group_agg(rows_ds, [key_col, "win_start"], _WINDOW_AGGS)


def max_concurrency(ds, key_col: str, start_col: str, end_col: str,
                    num_buckets: int = 32):
    """Sweep-line max-overlap per key: the maximum number of intervals
    ``[start, end)`` simultaneously open. Each interval emits +1/−1
    boundary rows batch-locally; ONE groupby(hash-bucket) shuffle
    (``num_buckets`` pandas groups TOTAL — the ops.buckets idiom, not one
    Python call per key) co-locates boundaries; inside a bucket one lexsort
    by ``(key, t, delta)`` (−1 before +1 at equal t — half-open semantics:
    an interval ending at t does not overlap one starting at t) puts every
    key in a contiguous run, and the per-key sweep is a segment-local
    cumsum + ``maximum.reduceat``. Ties within equal ``(t, delta)`` carry
    identical deltas, so the running max is permutation-invariant —
    deterministic without any further tiebreak.
    Output one row per key: ``(key_col, max_concurrent)``."""
    import pandas as pd

    from georay.ops import buckets as bk

    def boundaries(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        s = t[start_col].to_numpy(zero_copy_only=False)
        e = t[end_col].to_numpy(zero_copy_only=False)
        kk = np.concatenate([k, k])
        return pa.table(
            {
                key_col: pa.array(kk),
                "t": pa.array(np.concatenate([s, e])),
                "d": pa.array(np.concatenate(
                    [np.ones(k.size, dtype=np.int64),
                     -np.ones(k.size, dtype=np.int64)]
                )),
                "_bucket": pa.array(bk.bucket_of(kk, num_buckets)),
            }
        )

    def sweep_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys = g[key_col].to_numpy()
        codes, uniq = pd.factorize(keys)
        t = g["t"].to_numpy(np.int64)
        d = g["d"].to_numpy(np.int64)
        order = np.lexsort((d, t, codes))
        c = codes[order]
        d_s = d[order]
        starts = bk.segment_starts(c)
        counts = bk.segment_counts(starts, c.size)
        running = bk.local_cumsum(d_s, starts, counts)
        mx = np.maximum.reduceat(running, starts)
        return pd.DataFrame(
            {key_col: np.asarray(uniq)[c[starts]],
             "max_concurrent": mx.astype(np.int64)}
        )

    return (
        ds.select_columns([key_col, start_col, end_col])
        .map_batches(boundaries, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(sweep_bucket, batch_format="pandas")
    )


def running_stats(ds, key_col: str, ts_col: str, order_col: str,
                  value_col: str, roll: int = 3, ts_scale_us: int = 1,
                  num_buckets: int = 32):
    """Row-based window functions per key, ordered by (ts, order):

    - ``seq``       — 1-based row number within the key
    - ``cum_milli`` — running sum of ``floor(value·1000)`` (int-exact,
      inclusive of the current row)
    - ``dt_us``     — microseconds since the previous event (0 for the
      first) — the LAG shape
    - ``roll_milli``— rolling sum over the last ``roll`` rows (ROWS
      ``roll-1`` PRECEDING .. CURRENT ROW), via the cumsum-difference trick

    ONE groupby(hash-bucket) shuffle (``num_buckets`` pandas groups TOTAL —
    the ops.buckets idiom); inside a bucket one lexsort by ``(key, ts,
    order)`` puts every key's rows in a contiguous run, and all four
    windows are segmented numpy over the run boundaries (segment-local
    cumsum, start-masked diffs) — no per-key Python call. ``ts_scale_us``
    divides the raw int64 timestamp to microseconds (1000 for
    datetime64[ns] inputs — pass it like session(); the parquet tables are
    timestamp[us], scale 1). Output: key, order, seq, cum_milli, dt_us,
    roll_milli."""
    import pandas as pd

    from georay.ops import buckets as bk

    def add_bucket(t: pa.Table) -> pa.Table:
        return bk.append_bucket(t, key_col, num_buckets)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        _assert_ts_scale(g[ts_col].dtype, ts_scale_us, "running_stats")
        codes, _ = pd.factorize(g[key_col].to_numpy())
        ts_raw = g[ts_col].astype("int64").to_numpy()
        order = np.lexsort(
            (g[order_col].to_numpy(np.int64), ts_raw, codes)
        )
        c = codes[order]
        us = ts_raw[order] // ts_scale_us
        milli = np.floor(
            g[value_col].to_numpy(np.float64)[order] * 1000
        ).astype(np.int64)
        starts = bk.segment_starts(c)
        counts = bk.segment_counts(starts, c.size)
        pos = bk.position_in_segment(starts, counts, c.size)
        cum = bk.local_cumsum(milli, starts, counts)
        dt = np.zeros(us.size, dtype=np.int64)
        dt[1:] = us[1:] - us[:-1]
        dt[starts] = 0
        shifted = np.zeros(us.size, dtype=np.int64)
        m = pos >= roll
        shifted[m] = cum[np.flatnonzero(m) - roll]
        return pd.DataFrame(
            {
                key_col: g[key_col].to_numpy()[order],
                order_col: g[order_col].to_numpy(np.int64)[order],
                "seq": pos + 1,
                "cum_milli": cum,
                "dt_us": dt,
                "roll_milli": cum - shifted,
            }
        )

    return (
        ds.select_columns([key_col, ts_col, order_col, value_col])
        .map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def funnel(ds, key_col: str, ts_col: str, type_col: str, stages: list,
           num_buckets: int = 32):
    """Ordered funnel: per key, the greedy strictly-increasing chain through
    ``stages`` — t₁ = min ts of stage 1, t₂ = min ts of stage 2 with
    ts > t₁, … Output one row per key: ``(key_col, stage)`` where stage is
    the deepest step reached (0 = none).

    Plan: funnel-type events shrink to (key, stage, ts); every batch also
    contributes its distinct keys as stage-0 sentinel rows so keys with no
    funnel events still appear. ONE groupby(hash-bucket) shuffle
    (``num_buckets`` pandas groups TOTAL — the ops.buckets idiom); inside
    a bucket one lexsort by ``(key, ts)`` puts each key's events in a run
    and the K-step greedy chain advances ALL keys per stage at once (per
    stage: mask eligible rows, take the first masked row of each key's run
    — its minimum, since runs are ts-sorted). K iterations of O(rows)
    vectorized work, no per-key Python call.
    """
    import pandas as pd

    from georay.ops import buckets as bk

    stage_of = {s: i + 1 for i, s in enumerate(stages)}
    n_stages = len(stages)

    def shrink(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        us = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        types = t[type_col].to_pandas()
        st = types.map(stage_of).fillna(0).to_numpy(dtype=np.int64)
        keep = st > 0
        ukeys = np.unique(keys)
        kk = np.concatenate([keys[keep], ukeys])
        return pa.table(
            {
                key_col: pa.array(kk),
                "stage": pa.array(np.concatenate(
                    [st[keep], np.zeros(ukeys.size, dtype=np.int64)]
                )),
                "us": pa.array(np.concatenate(
                    [us[keep], np.zeros(ukeys.size, dtype=np.int64)]
                )),
                "_bucket": pa.array(bk.bucket_of(kk, num_buckets)),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        codes, uniq = pd.factorize(g[key_col].to_numpy())
        nk = len(uniq)
        order = np.lexsort((g["us"].to_numpy(np.int64), codes))
        c = codes[order]
        u = g["us"].to_numpy(np.int64)[order]
        s_arr = g["stage"].to_numpy(np.int64)[order]
        thr = np.full(nk, np.iinfo(np.int64).min, dtype=np.int64)
        reached = np.zeros(nk, dtype=np.int64)
        alive = np.ones(nk, dtype=bool)
        for s in range(1, n_stages + 1):
            m = (s_arr == s) & alive[c] & (u > thr[c])
            sub = np.flatnonzero(m)
            if sub.size == 0:
                break
            cs = c[sub]
            firsts = sub[np.concatenate(([True], cs[1:] != cs[:-1]))]
            adv = c[firsts]
            alive = np.zeros(nk, dtype=bool)
            alive[adv] = True
            thr[adv] = u[firsts]
            reached[adv] = s
        return pd.DataFrame({key_col: np.asarray(uniq), "stage": reached})

    return (
        ds.select_columns([key_col, ts_col, type_col])
        .map_batches(shrink, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def session(ds, key_col: str, ts_col: str, gap_us: int, ts_scale_us: int = 1,
            num_buckets: int = 32):
    """Session windows: per-key sort by ts, split where the gap exceeds
    ``gap_us``. One groupby(hash-bucket) shuffle (the ops.buckets idiom);
    inside a bucket one lexsort by ``(key, ts)`` puts each key's events in
    a run, and a session starts at every run start or over-gap step — the
    whole sessionization is one boolean mask + run-length arithmetic, no
    per-key Python call. Output: key, session_start_us, session_end_us, n.
    """
    import pandas as pd

    from georay.ops import buckets as bk

    def add_bucket(t: pa.Table) -> pa.Table:
        return bk.append_bucket(t, key_col, num_buckets)

    def sessions_bucket(g: pd.DataFrame) -> pd.DataFrame:
        _assert_ts_scale(g[ts_col].dtype, ts_scale_us, "session")
        keys = g[key_col].to_numpy()
        codes, _ = pd.factorize(keys)
        us_all = g[ts_col].astype("int64").to_numpy() // ts_scale_us
        order = np.lexsort((us_all, codes))
        c = codes[order]
        u = us_all[order]
        brk = np.empty(c.size, dtype=bool)
        brk[0] = True
        brk[1:] = (c[1:] != c[:-1]) | ((u[1:] - u[:-1]) > gap_us)
        starts = np.flatnonzero(brk).astype(np.int64)
        counts = bk.segment_counts(starts, c.size)
        ends = starts + counts - 1
        return pd.DataFrame(
            {
                key_col: keys[order][starts],
                "session_start_us": u[starts],
                "session_end_us": u[ends],
                "n": counts,
            }
        )

    return (
        ds.select_columns([key_col, ts_col])
        .map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(sessions_bucket, batch_format="pandas")
    )


def transitions(ds, key_col: str, ts_col: str, order_col: str, type_col: str,
                num_buckets: int = 32, num_partitions: int = 4):
    """First-order Markov transition matrix over per-key event sequences:
    count every (prev type → type) bigram with rows ordered by ``(ts,
    order)`` inside each key, then attach per-source totals and the
    transition probability (ONE float division — SQL-replayable).

    ONE groupby(hash-bucket) shuffle (the ops.buckets idiom): inside a
    bucket a single lexsort makes every key a contiguous run; bigrams are
    the (shifted, unshifted) code pairs with run starts masked out, and the
    bucket collapses to per-(from, to) partial counts before anything else
    shuffles. A ``group_agg`` merges buckets; per-source totals are a
    second one over the (few) matrix rows joined back by source type.
    Output: ``from_type, to_type, n, from_total, prob``.
    """
    import pandas as pd

    from georay.ops import buckets as bk

    def add_bucket(t: pa.Table) -> pa.Table:
        return bk.append_bucket(t, key_col, num_buckets)

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        codes, _ = pd.factorize(g[key_col].to_numpy())
        ts_raw = g[ts_col].astype("int64").to_numpy()
        order = np.lexsort(
            (g[order_col].to_numpy(np.int64), ts_raw, codes))
        c = codes[order]
        tcodes, tvals = pd.factorize(g[type_col].to_numpy()[order])
        starts = bk.segment_starts(c)
        is_start = np.zeros(c.size, bool)
        is_start[starts] = True
        to_idx = np.flatnonzero(~is_start)  # every non-first row is a bigram
        pair = tcodes[to_idx - 1].astype(np.int64) * len(tvals) + tcodes[to_idx]
        up, cnt = np.unique(pair, return_counts=True)
        return table_from_pandas(pd.DataFrame({
            "from_type": tvals[(up // len(tvals)).astype(np.int64)],
            "to_type": tvals[(up % len(tvals)).astype(np.int64)],
            "p_n": cnt.astype(np.int64),
        }))

    partials = (
        ds.select_columns([key_col, ts_col, order_col, type_col])
        .map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
    counts = group_agg(
        partials, ["from_type", "to_type"], {"n": ("sum", "p_n")}
    ).materialize()  # consumed twice: totals + join
    totals = group_agg(counts, "from_type", {"from_total": ("sum", "n")})
    joined = join(counts, totals, "inner", on=("from_type",),
                  num_partitions=num_partitions)

    def prob(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        tot = t["from_total"].to_numpy(zero_copy_only=False).astype(np.float64)
        return t.append_column("prob", pa.array(n / tot))

    return joined.map_batches(prob, batch_format="pyarrow",
                              zero_copy_batch=True)


def resample_gapfill(ds, key_col: str, ts_col: str, value_col: str,
                     bucket_us: int, ts_scale_us: int = 1,
                     num_partitions: int | None = None):
    """Fixed-interval time-series resample WITH gap fill: per (key, bucket)
    count + integer value sum, then every missing bucket between each
    key's first and last observation emitted as an explicit zero row —
    the shape regular-grid consumers (forecasting, charting) need.

    ``value_col`` must already be integer-valued (pre-scale floats to
    cents upstream so sums are exact under any execution order).

    Bit contract: every bucket index ``(ts // ts_scale_us) // bucket_us``
    must satisfy ``0 <= bucket < 2^24`` — epoch-microsecond timestamps
    need ``bucket_us >= ~1.7e11/2^24`` (hour buckets from a 1970 epoch
    overflow; rebase ts or widen bucket_us). Validated per batch with a
    ValueError.

    Plan: a (key, bucket) ``group_agg``; per-key (min, max) spans → a
    second ``group_agg`` over its rows; the dense grid is a
    segmented-arange flat-map of the span rows (O(span) rows per key, no
    driver loop), left-joined back to the aggregate with nulls → 0. The
    exchanges carry only aggregate and span rows — never raw events.
    """
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    import pyarrow.compute as pc

    def rows(t: pa.Table) -> pa.Table:
        _assert_ts_scale(t[ts_col].type, ts_scale_us, "resample_gapfill")
        key = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        us = t[ts_col].cast(pa.int64()).to_numpy(
            zero_copy_only=False) // ts_scale_us
        b = us // bucket_us
        if b.size and (b.min() < 0 or b.max() >= (1 << 24)):
            raise ValueError(
                "resample_gapfill: bucket index out of the packed 24-bit "
                "range [0, 2^24) (got [%d, %d]) — rebase timestamps or "
                "widen bucket_us (see docstring bit contract)"
                % (int(b.min()), int(b.max()))
            )
        val = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({key_col: key, "bucket": b, "val": val})

    agg = group_agg(
        ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True),
        [key_col, "bucket"], {"n": ("count", None), "v": ("sum", "val")},
    )
    spans = group_agg(agg, key_col, {"b0": ("min", "bucket"),
                                     "b1": ("max", "bucket")})

    def explode(t: pa.Table) -> pa.Table:
        key = t[key_col].to_numpy(zero_copy_only=False)
        b0 = t["b0"].to_numpy(zero_copy_only=False)
        b1 = t["b1"].to_numpy(zero_copy_only=False)
        counts = b1 - b0 + 1
        total = int(counts.sum())
        row = np.repeat(np.arange(key.size), counts)
        firsts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        bucket = b0[row] + (np.arange(total) - firsts[row])
        return pa.table({key_col: key[row], "bucket": bucket})

    grid = spans.map_batches(explode, batch_format="pyarrow",
                             zero_copy_batch=True).repartition(num_partitions)

    joined = join(grid, agg, "left_outer", on=(key_col, "bucket"),
                  num_partitions=num_partitions)

    def fill(t: pa.Table) -> pa.Table:
        return pa.table({
            key_col: t[key_col], "bucket": t["bucket"],
            "n": pc.fill_null(t["n"], 0).cast(pa.int64()),
            "v": pc.fill_null(t["v"], 0).cast(pa.int64()),
        })

    return joined.map_batches(fill, batch_format="pyarrow")


def cusum_changepoint(series_ds, key_col: str, t_col: str, x_col: str,
                      num_buckets: int = 64):
    """Per-key CUSUM change-point over an ordered integer series: with
    n points, running sum cum_t and total T, the deviation is
    ``D_t = n·cum_t − t·T`` (the mean cross-multiplied away, so D is
    int64-exact); the change point is the t at max |D_t|, earliest on
    ties. Input: one row per (key, t) with integer value ``x_col`` (an
    aggregated series — run a two-phase count first, never raw events).

    Bucketized (VERDICT-r3 idiom): ONE groupby(hash-bucket), and inside a
    bucket one sort + segmented numpy across all keys (run-boundary
    cumsum, reduceat max, reduceat first-tie pick) — no per-key Python
    call. Overflow contract: n·T must fit int64 (callers with >2³¹-scale
    per-key totals pre-scale down).

    Output: ``key_col, n_pts, total, cp_t, max_absdev``.
    """
    import pandas as pd

    from georay.ops import buckets as bk

    def add_bucket(t: pa.Table) -> pa.Table:
        return bk.append_bucket(t, key_col, num_buckets)

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([key_col, t_col], kind="quicksort")
        k = g[key_col].to_numpy()
        tv = g[t_col].to_numpy().astype(np.int64)
        x = g[x_col].to_numpy().astype(np.int64)
        n = len(g)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new).astype(np.int64)
        counts = bk.segment_counts(starts, n)
        cum = bk.local_cumsum(x, starts, counts)
        tot_seg = cum[starts + counts - 1]
        tot = np.repeat(tot_seg, counts)
        nd = np.repeat(counts, counts)
        tpos = bk.position_in_segment(starts, counts, n) + 1
        adev = np.abs(nd * cum - tpos * tot)
        m = np.maximum.reduceat(adev, starts)
        pos = bk.position_in_segment(starts, counts, n)
        cand = np.where(adev == np.repeat(m, counts), pos, np.int64(1) << 62)
        sel = starts + np.minimum.reduceat(cand, starts)
        return pa.table({
            key_col: pa.array(k[sel]),
            "n_pts": pa.array(counts),
            "total": pa.array(tot_seg),
            "cp_t": pa.array(tv[sel]),
            "max_absdev": pa.array(m.astype(np.int64)),
        })

    return (
        series_ds.map_batches(add_bucket, batch_format="pyarrow",
                              zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )

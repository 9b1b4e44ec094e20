"""Trajectory operators over keyed, timestamped point streams.

A "trajectory" is the time-ordered sequence of capture points sharing a key
(device, user, vessel). The ops here run on
``runtime.by_key`` (ops/buckets.py): ONE exchange co-locates many keys per
bucket, one lexsort per bucket puts each key's points in a contiguous run,
and all per-key reductions are segmented numpy over run boundaries — no
per-key Python call. Contract: one BUCKET's points must fit in a worker; a
single skewed key must still fit on its own, same as any key-hash shuffle.

Distances are computed on INTEGER grid coordinates supplied by the caller
(milli-degree ints in the harness queries) so sums/maxima are exact under
any execution order — the float-determinism house rule (queries.py header).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from georay.runtime import by_key, group_agg, join


def trajectory_stats(ds, key_col: str, ts_col: str, order_col: str,
                     x_col: str, y_col: str, cell_col: str | None = None):
    """Per-key trajectory summary: legs between consecutive points.

    Sort order within a key is (``ts_col``, ``order_col``) — the tiebreak
    makes duplicate timestamps deterministic. Output, one row per key:

    - ``n_events``  — points on the trajectory
    - ``n_legs``    — consecutive-point segments (``n_events - 1``, 0 for
      singleton trajectories)
    - ``sum_d2`` / ``max_d2`` — exact integer squared leg length in the
      caller's grid units (0 when no legs)
    - ``sum_dt_us`` — total elapsed time over legs (0 when no legs)
    - ``n_cells``   — distinct ``cell_col`` values visited (omitted when
      ``cell_col`` is None)
    """

    cols = [key_col, ts_col, order_col, x_col, y_col]
    if cell_col is not None:
        cols.append(cell_col)

    from georay.ops import buckets as bk

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        keys = g[key_col].to_numpy()
        codes, uniq = pd.factorize(keys)
        ts_raw = g[ts_col].astype("int64").to_numpy()
        order = np.lexsort(
            (g[order_col].to_numpy(np.int64), ts_raw, codes)
        )
        c = codes[order]
        x = g[x_col].to_numpy(dtype=np.int64)[order]
        y = g[y_col].to_numpy(dtype=np.int64)[order]
        us = ts_raw[order]
        starts = bk.segment_starts(c)
        counts = bk.segment_counts(starts, c.size)
        ends = starts + counts - 1
        # diffs across the whole bucket; cross-key positions (a key's first
        # row) are zeroed so segment sums/maxima ignore them — d2 >= 0, so
        # a zero can never beat a real max, and zero-leg keys want 0 anyway
        dx, dy = np.diff(x), np.diff(y)
        d2 = dx * dx + dy * dy
        cross = starts[1:] - 1  # diff position (i, i+1) straddling keys
        d2[cross] = 0
        d2p = np.append(d2, np.int64(0))  # pad: reduceat start may be len-1
        cs = np.concatenate(([0], np.cumsum(d2p)))
        sum_d2 = cs[ends] - cs[starts]  # exact int (cross zeros drop out)
        max_d2 = np.maximum.reduceat(d2p, np.minimum(starts, d2p.size - 1))
        has_leg = counts > 1
        out = {
            key_col: np.asarray(uniq)[c[starts]],
            "n_events": counts,
            "n_legs": np.maximum(counts - 1, 0),
            "sum_d2": sum_d2,
            "max_d2": np.where(has_leg, max_d2, 0).astype(np.int64),
            "sum_dt_us": np.where(has_leg, us[ends] - us[starts], 0
                                  ).astype(np.int64),
        }
        if cell_col is not None:
            cells = g[cell_col].to_numpy(dtype=np.int64)
            o2 = np.lexsort((cells, codes))
            c2, cl2 = codes[o2], cells[o2]
            newv = np.empty(c2.size, dtype=bool)
            newv[0] = True
            newv[1:] = (c2[1:] != c2[:-1]) | (cl2[1:] != cl2[:-1])
            starts2 = bk.segment_starts(c2)
            csn = np.concatenate(([0], np.cumsum(newv.astype(np.int64))))
            ends2 = starts2 + bk.segment_counts(starts2, c2.size)
            out["n_cells"] = csn[ends2] - csn[starts2]
        return pd.DataFrame(out)

    stats = ["n_events", "n_legs", "sum_d2", "max_d2", "sum_dt_us"]
    if cell_col is not None:
        stats.append("n_cells")
    return by_key(ds.select_columns(cols), key_col, per_bucket,
                  lambda s: pa.schema([s.field(key_col)]
                                      + [(c, pa.int64()) for c in stats]))


def od_matrix(ds, key_col: str, ts_col: str, order_col: str, cell_col: str):
    """Origin→destination transition matrix over trajectory legs: how many
    legs go from cell A to cell B, across all keys.

    One ``runtime.by_key`` exchange co-locates many keys per bucket; inside
    a bucket one lexsort by ``(key, ts, order)`` puts each key's points in
    a run, and within-run consecutive-cell transitions are the legs;
    ``group_agg`` counts them per ``(o_cell, d_cell)`` (its per-batch
    partial collapses each bucket's legs to distinct pairs first).
    Self-loop legs (consecutive points in the same cell) are counted.
    Output: ``(o_cell, d_cell, n)``.
    """

    def per_bucket(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        codes, _ = pd.factorize(g[key_col].to_numpy())
        ts_raw = g[ts_col].astype("int64").to_numpy()
        order = np.lexsort(
            (g[order_col].to_numpy(np.int64), ts_raw, codes)
        )
        c = codes[order]
        cell = g[cell_col].to_numpy(dtype=np.int64)[order]
        within = c[1:] == c[:-1]  # legs never straddle two keys
        return pa.table({"o_cell": cell[:-1][within],
                         "d_cell": cell[1:][within]})

    legs = by_key(
        ds.select_columns([key_col, ts_col, order_col, cell_col]), key_col,
        per_bucket,
        pa.schema([("o_cell", pa.int64()), ("d_cell", pa.int64())]))
    return group_agg(legs, ["o_cell", "d_cell"], {"n": ("count", None)})


def leg_cell_cover(ds, key_col: str, ts_col: str, order_col: str,
                   x_col: str, y_col: str, cell_size: int,
                   nx: int, ny: int):
    """Supercover line rasterization of trajectory legs — which grid cells
    does each consecutive-point segment cross? Completes the vector trio
    (point→cell: codec.encode; polygon→cells: cells.polygon_cover;
    line→cells: here).

    Coordinates are INTEGER grid units (milli-degrees in the harness);
    cells are ``cell_size``-sized boxes, ``nx × ny`` of them. A cell is
    covered when (a) it lies in the segment's floor-div bbox index range —
    note this is LOW-EDGE-EXCLUSIVE when the segment only touches a cell's
    low gridline from outside, the same half-open convention as the PIP
    rectangles — and (b) the segment's line straddles or touches the cell's
    corner box (min/max of the four int64 corner cross-products brackets
    zero). All arithmetic is int64 (cross products bounded by extent² <
    2⁶³), so the SQL twin is bit-exact BY CONSTRUCTION — no float geometry
    anywhere.

    One ``runtime.by_key`` exchange, then per bucket: one lexsort by
    ``(key, ts, order)`` puts each key's points in a run, within-run
    consecutive points form legs (across ALL the bucket's keys at once),
    each leg's bbox candidate cells enumerate with the offsets idiom (no
    per-leg Python loop), the straddle test filters, and per-leg bincounts
    aggregate. Output one row per leg: ``key_col, seq (0-based),
    n_cov (covered cells), sum_code (Σ cx·ny + cy — a content checksum)``.
    """
    from georay.ops import buckets as bk

    out_schema = pa.schema(
        [
            (key_col, pa.int64()),
            ("seq", pa.int64()),
            ("n_cov", pa.int64()),
            ("sum_code", pa.int64()),
        ]
    )
    s = np.int64(cell_size)

    def per_bucket(t: pa.Table) -> pd.DataFrame | pa.Table:
        g = t.to_pandas()
        keys = g[key_col].to_numpy()
        codes, _ = pd.factorize(keys)
        ts_raw = g[ts_col].astype("int64").to_numpy()
        order = np.lexsort(
            (g[order_col].to_numpy(np.int64), ts_raw, codes)
        )
        c = codes[order]
        x = g[x_col].to_numpy(dtype=np.int64)[order]
        y = g[y_col].to_numpy(dtype=np.int64)[order]
        starts = bk.segment_starts(c)
        counts = bk.segment_counts(starts, c.size)
        pos = bk.position_in_segment(starts, counts, c.size)
        within = c[1:] == c[:-1]  # legs never straddle two keys
        x1, x2 = x[:-1][within], x[1:][within]
        y1, y2 = y[:-1][within], y[1:][within]
        leg_keys = keys[order][1:][within]
        leg_seq = pos[1:][within] - 1  # 0-based leg index within its key
        n_legs = x1.size
        if n_legs <= 0:
            return out_schema.empty_table()
        cx_lo = np.minimum(x1, x2) // s
        cx_hi = np.minimum(np.maximum(x1, x2) // s, np.int64(nx - 1))
        cy_lo = np.minimum(y1, y2) // s
        cy_hi = np.minimum(np.maximum(y1, y2) // s, np.int64(ny - 1))
        w = (cx_hi - cx_lo + 1)
        h = (cy_hi - cy_lo + 1)
        counts = w * h
        total = int(counts.sum())
        leg = np.repeat(np.arange(n_legs, dtype=np.int64), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        local = np.arange(total, dtype=np.int64) - starts
        cx = cx_lo[leg] + local // h[leg]
        cy = cy_lo[leg] + local % h[leg]
        # corner cross products vs the segment line (int64 exact)
        dx = (x2 - x1)[leg]
        dy = (y2 - y1)[leg]
        bx1, bx2 = cx * s, (cx + 1) * s
        by1, by2 = cy * s, (cy + 1) * s
        d_a = dx * (by1 - y1[leg]) - dy * (bx1 - x1[leg])
        d_b = dx * (by1 - y1[leg]) - dy * (bx2 - x1[leg])
        d_c = dx * (by2 - y1[leg]) - dy * (bx1 - x1[leg])
        d_d = dx * (by2 - y1[leg]) - dy * (bx2 - x1[leg])
        dmin = np.minimum(np.minimum(d_a, d_b), np.minimum(d_c, d_d))
        dmax = np.maximum(np.maximum(d_a, d_b), np.maximum(d_c, d_d))
        keep = (dmin <= 0) & (dmax >= 0)
        leg_k, cx_k, cy_k = leg[keep], cx[keep], cy[keep]
        n_cov = np.bincount(leg_k, minlength=n_legs).astype(np.int64)
        code = cx_k * np.int64(ny) + cy_k
        sum_code = np.zeros(n_legs, dtype=np.int64)
        np.add.at(sum_code, leg_k, code)
        return pd.DataFrame({
            key_col: leg_keys.astype(np.int64),
            "seq": leg_seq,
            "n_cov": n_cov,
            "sum_code": sum_code,
        })

    cols = [key_col, ts_col, order_col, x_col, y_col]
    return by_key(ds.select_columns(cols), key_col, per_bucket, out_schema)


# movement-direction octants: ordered first-match-wins conditions, mirrored
# verbatim in the SQL twin's CASE — integer sign/compare logic only (the
# 45°-boundary octants need no trig on a grid)
def octant_codes(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    conds = [
        (dx == 0) & (dy == 0),                 # 8: no move
        (dx > 0) & (dy >= 0) & (dx > dy),      # 0: E  [0°, 45°)
        (dy > 0) & (dx > 0),                   # 1: NE [45°, 90°)
        (dy > 0) & (dx == 0),                  # 2: N  [90°, 135°)
        (dy > 0) & (-dx < dy),                 # 2: N  (dx < 0 branch)
        (dy > 0),                              # 3: NW [135°, 180°)
        (dx < 0) & (dy == 0),                  # 4: W  [180°, 225°)
        (dx < 0) & (dy < 0) & (dx < dy),       # 4: W  (|dx| > |dy|)
        (dy < 0) & (dx < 0),                   # 5: SW [225°, 270°)
        (dy < 0) & (dx == 0),                  # 6: S  [270°, 315°)
        (dy < 0) & (dx < -dy),                 # 6: S  (dx > 0 branch)
    ]
    vals = [8, 0, 1, 2, 2, 3, 4, 4, 5, 6, 6]
    return np.select(conds, vals, default=7).astype(np.int64)


def leg_octants(ds, key_col: str, ts_col: str, order_col: str,
                x_col: str, y_col: str):
    """Movement-direction histogram over trajectory legs: every
    consecutive-point leg classified into one of 8 compass octants (plus
    8 = zero-move), counted globally. Same one-shuffle bucketed-cogroup
    shape as :func:`od_matrix`; partials are ≤9 rows per batch, so the
    combine is negligible."""

    def per_bucket(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        codes, _ = pd.factorize(g[key_col].to_numpy())
        ts_raw = g[ts_col].astype("int64").to_numpy()
        order = np.lexsort((g[order_col].to_numpy(np.int64), ts_raw, codes))
        c = codes[order]
        x = g[x_col].to_numpy(dtype=np.int64)[order]
        y = g[y_col].to_numpy(dtype=np.int64)[order]
        within = c[1:] == c[:-1]
        dx = (x[1:] - x[:-1])[within]
        dy = (y[1:] - y[:-1])[within]
        return pa.table({"octant": octant_codes(dx, dy).astype(np.int64)})

    legs = by_key(
        ds.select_columns([key_col, ts_col, order_col, x_col, y_col]),
        key_col, per_bucket, pa.schema([("octant", pa.int64())]))
    return group_agg(legs, "octant", {"n": ("count", None)})


def stay_points(ds, key_col: str, ts_col: str, order_col: str,
                x_col: str, y_col: str, eps2: int, min_dur_us: int = 0):
    """Stay-point (dwell) detection: per key, every MAXIMAL run of
    consecutive slow legs — legs whose exact integer squared length is
    ≤ ``eps2`` — in (ts, order) order; one output row per stay with its
    bounding timestamps. The gaps-and-islands segmentation GPS pipelines
    use to turn pings into visits.

    Bucketized (one ``runtime.by_key`` exchange, segmented numpy across
    keys):
    legs and the slow mask compute across the whole bucket, cross-key diff
    positions are forced fast so runs never straddle keys, and run
    boundaries are two shifted-mask flatnonzeros — no per-key Python call.

    Output: ``key_col, start_us, end_us, n_pts, dur_us`` (stays with
    ``dur_us ≥ min_dur_us``; a single slow leg is a 2-point stay).
    """
    from georay.ops import buckets as bk

    cols = [key_col, ts_col, order_col, x_col, y_col]

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        keys = g[key_col].to_numpy()
        codes, uniq = pd.factorize(keys)
        ts_raw = g[ts_col].astype("int64").to_numpy()
        order = np.lexsort((g[order_col].to_numpy(np.int64), ts_raw, codes))
        c = codes[order]
        x = g[x_col].to_numpy(dtype=np.int64)[order]
        y = g[y_col].to_numpy(dtype=np.int64)[order]
        us = ts_raw[order]
        dx, dy = np.diff(x), np.diff(y)
        d2 = dx * dx + dy * dy
        slow = d2 <= np.int64(eps2)
        starts = bk.segment_starts(c)
        slow[starts[1:] - 1] = False  # cross-key diffs are never legs
        prev = np.concatenate(([False], slow[:-1]))
        nxt = np.concatenate((slow[1:], [False]))
        rs = np.flatnonzero(slow & ~prev)  # first leg of each run
        re_ = np.flatnonzero(slow & ~nxt)  # last leg of each run
        start_us = us[rs]
        end_us = us[re_ + 1]
        dur = end_us - start_us
        keep = dur >= min_dur_us
        return pd.DataFrame({
            key_col: np.asarray(uniq)[c[rs[keep]]],
            "start_us": start_us[keep],
            "end_us": end_us[keep],
            "n_pts": (re_ - rs)[keep] + 2,
            "dur_us": dur[keep],
        })

    return by_key(ds.select_columns(cols), key_col, per_bucket,
                  lambda s: pa.schema([s.field(key_col)] + [
                      (c, pa.int64())
                      for c in ("start_us", "end_us", "n_pts", "dur_us")]))


def spatiotemporal_pairs(ds, id_col: str, user_col: str, ts_col: str,
                         x_col: str, y_col: str, eps: int, window_us: int,
                         num_partitions: int | None = None):
    """Spatiotemporal contact join: every pair of events from DIFFERENT
    users within integer grid distance ``eps`` (d² ≤ eps²) AND within
    ``window_us`` in time — the proximity/contact-tracing join, a true 3-D
    (x, y, t) problem no single-key ring join expresses.

    Plan: bucket each event at (x//eps, y//eps, t//window_us); the HOME
    side keeps its one bucket, the PROBE side flat-maps to the 27-cell
    (3×3×3) neighborhood, ONE hash join on the packed bucket key, exact
    integer predicate filter. Report-once: a pair (a < b by id) is emitted
    only from a's unique home bucket, so NO dedup shuffle exists in the
    plan (box_join discipline). Exchange = 27× one side — at scale expand
    whichever side is smaller, symmetric by construction.

    Overflow contract: x//eps and y//eps < 2¹⁴, t//window_us < 2³⁵
    (pack = tb·2²⁸ + cx·2¹⁴ + cy).

    Output: ``event_a, event_b, d2, dt_us`` (a < b).
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    import pyarrow as pa

    eps2 = np.int64(eps) * np.int64(eps)

    def pack_key(cx, cy, tb):
        return (tb << np.int64(28)) + (cx << np.int64(14)) + cy

    def home(t: pa.Table) -> pa.Table:
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        us = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bk = pack_key(x // eps, y // eps, us // window_us)
        return pa.table({
            "bk": bk,
            "event_a": t[id_col].cast(pa.int64()),
            "user_a": t[user_col].cast(pa.int64()),
            "us_a": pa.array(us), "x_a": pa.array(x), "y_a": pa.array(y),
        })

    def probe(t: pa.Table) -> pa.Table:
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        us = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cx, cy, tb = x // eps, y // eps, us // window_us
        keys, eids, uids, uss, xs, ys = [], [], [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dt in (-1, 0, 1):
                    keys.append(pack_key(cx + dx, cy + dy, tb + dt))
                    eids.append(eid)
                    uids.append(uid)
                    uss.append(us)
                    xs.append(x)
                    ys.append(y)
        return pa.table({
            "bk": np.concatenate(keys),
            "event_b": np.concatenate(eids),
            "user_b": np.concatenate(uids),
            "us_b": np.concatenate(uss),
            "x_b": np.concatenate(xs),
            "y_b": np.concatenate(ys),
        })

    cols = [id_col, user_col, ts_col, x_col, y_col]
    base = ds.select_columns(cols)
    h = base.map_batches(home, batch_format="pyarrow", zero_copy_batch=True)
    p = base.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)
    joined = join(h, p, "inner", on=("bk",), num_partitions=num_partitions)

    def filt(t: pa.Table) -> pa.Table:
        ea = t["event_a"].to_numpy(zero_copy_only=False)
        eb = t["event_b"].to_numpy(zero_copy_only=False)
        dt = np.abs(t["us_a"].to_numpy(zero_copy_only=False)
                    - t["us_b"].to_numpy(zero_copy_only=False))
        dx = t["x_a"].to_numpy(zero_copy_only=False) - t["x_b"].to_numpy(
            zero_copy_only=False)
        dy = t["y_a"].to_numpy(zero_copy_only=False) - t["y_b"].to_numpy(
            zero_copy_only=False)
        d2 = dx * dx + dy * dy
        keep = (
            (ea < eb)
            & (t["user_a"].to_numpy(zero_copy_only=False)
               != t["user_b"].to_numpy(zero_copy_only=False))
            & (dt <= window_us) & (d2 <= eps2)
        )
        return pa.table({
            "event_a": ea[keep], "event_b": eb[keep],
            "d2": d2[keep], "dt_us": dt[keep],
        })

    return joined.map_batches(filt, batch_format="pyarrow",
                              zero_copy_batch=True)

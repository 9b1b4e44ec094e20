"""kNN via neighbor-cell (k-ring) candidate expansion (SURVEY.md §2.5 N5).

``knn_ring`` is the broadcast variant: reference points are shipped once as a
cell-sorted lookup; each query batch probes its own cell plus the ring of
surrounding cells (matching pangeo-geohash's ``neighbors`` semantics,
SURVEY.md §2.1 S5), computes exact squared-degree distances to the gathered
candidates, and keeps the per-query top-k — all inside one ``map_batches``
with no shuffle. Queries with fewer than k in-ring candidates return fewer
rows (ring-bound semantics; the oracle SQL mirrors this exactly via the
Chebyshev-distance join predicate).

The big×big variant (flat-map ring cells → shuffle join → per-query top-k
reduce) is :func:`knn_shuffle`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import cells, codec
from georay.runtime import by_key, group_agg, join, per_key


def codec_split_nx(bits: int) -> int:
    # codec imported at MODULE level: this runs inside worker tasks, where a
    # lazy import dies on foreign-cwd drivers (CLAUDE.md invariant)
    return codec.split_bits(bits)[0]


def _dense_rank(vals: np.ndarray) -> np.ndarray:
    """Tie-aware dense rank (equal values share a rank) via ONE quicksort
    argsort + run-collapse — never a stable sort. numpy's stable/radix
    sorts (and therefore ``np.lexsort``) intermittently run 10-40× slower
    than introsort on this class of VM (measured 2.6–14 s vs 0.25 s on 4M
    rows, phase-dependent); dense ranks let the 3-key lexicographic sort
    below be expressed as quicksorts only."""
    od = np.argsort(vals, kind="quicksort")
    sv = vals[od]
    r = np.empty(vals.size, dtype=np.uint64)
    if vals.size:
        steps = np.empty(vals.size, dtype=np.int64)
        steps[0] = 0
        np.cumsum(sv[1:] != sv[:-1], out=steps[1:])
        r[od] = steps.astype(np.uint64)
    return r


def _lex3_order(qidx: np.ndarray, dist: np.ndarray,
                tiebreak: np.ndarray) -> np.ndarray:
    """Exact lexicographic argsort by (qidx, dist, tiebreak) built from
    quicksorts: dense-rank each key, pack (rank_dist, rank_tie) → one
    dense rank, pack with rank_query, one final argsort. Rows equal in ALL
    three keys are interchangeable (identical content), so the unstable
    final sort changes nothing observable. Valid for n < 2³¹ (ranks are
    dense, so every packed key stays below n² < 2⁶²)."""
    n = np.uint64(qidx.size)
    rd = _dense_rank(dist)
    rt = _dense_rank(tiebreak)
    ri = _dense_rank(rd * n + rt)
    rq = _dense_rank(qidx)
    return np.argsort(rq * n + ri, kind="quicksort")


def _topk_per_query(
    qidx: np.ndarray, dist: np.ndarray, tiebreak: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rank candidates within each query by (dist, tiebreak); return the
    selection mask positions and 1-based ranks. Vectorized; quicksort-only
    (see _lex3_order for why not np.lexsort)."""
    order = _lex3_order(qidx, dist, tiebreak)
    qs = qidx[order]
    new_group = np.empty(qs.size, dtype=bool)
    if qs.size:
        new_group[0] = True
        new_group[1:] = qs[1:] != qs[:-1]
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(qs.size), 0))
    rank = np.arange(qs.size) - group_start
    keep = rank < k
    return order[keep], rank[keep] + 1


def _topk_sorted_queries(
    qidx: np.ndarray, dist: np.ndarray, tiebreak: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_topk_per_query` for a NONDECREASING ``qidx``, same output,
    after an exact pre-cut: k passes of ``np.minimum.reduceat`` find each
    query's k-th smallest DISTINCT distance, and only rows at or under it
    (a superset of every top-k) reach the five argsorts (505k candidates,
    k=5, on a 1-core host: 0.14 s → 0.03 s)."""
    if qidx.size == 0 or np.isnan(dist).any():  # NaN poisons the minimum
        return _topk_per_query(qidx, dist, tiebreak, k)
    starts = np.flatnonzero(np.r_[True, qidx[1:] != qidx[:-1]])
    lens = np.diff(np.r_[starts, qidx.size])
    rest = dist.copy()
    for _ in range(k):  # after pass j, kth = the j-th distinct distance
        kth = np.repeat(np.minimum.reduceat(rest, starts), lens)
        rest[rest <= kth] = np.inf  # fewer than k distinct: kth -> inf
    idx = np.flatnonzero(dist <= kth)
    sel, rank = _topk_per_query(qidx[idx], dist[idx], tiebreak[idx], k)
    return idx[sel], rank


def knn_ring(
    queries_ds,
    refs_table: pa.Table,
    bits: int,
    k: int,
    ring: int = 1,
    query_cols: list[str] | None = None,
    ref_id: str = "ref_id",
    cell_col: str = "cell",
):
    """For each query row: the k nearest reference rows among all refs whose
    cell is within Chebyshev distance ``ring`` of the query's cell.

    Requires lon/lat + ``cell_col`` on both sides. Output columns: the query
    columns, ``ref_id``, ``dist2`` (squared degrees), ``rank`` (1-based).
    """
    import ray

    rcell = refs_table[cell_col].to_numpy(zero_copy_only=False)
    order = np.argsort(rcell, kind="stable")
    packed = {
        "cell": rcell[order],
        "lon": refs_table["lon"].to_numpy(zero_copy_only=False)[order],
        "lat": refs_table["lat"].to_numpy(zero_copy_only=False)[order],
        "id": refs_table[ref_id].to_numpy(zero_copy_only=False)[order],
    }
    refs_ref = ray.put(packed)
    key = refs_ref.hex()

    class Knn:
        def __init__(self):
            self.refs = ray.get(refs_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            refs = self.refs
            qcell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            qlon = t["lon"].to_numpy(zero_copy_only=False)
            qlat = t["lat"].to_numpy(zero_copy_only=False)
            n = qcell.shape[0]
            ring_cells, valid = cells.k_ring(qcell, bits, ring)
            flat_cells = ring_cells.reshape(-1).astype(np.int64)
            flat_q = np.repeat(np.arange(n), ring_cells.shape[1])
            flat_ok = valid.reshape(-1)
            flat_cells, flat_q = flat_cells[flat_ok], flat_q[flat_ok]
            # dedupe ring cells per query: rings wider than the lon grid
            # alias around the wrap and would duplicate candidates (only
            # possible on tiny grids, so the int64 combo below cannot
            # overflow)
            uniqmask = np.ones(flat_cells.size, dtype=bool)
            if (2 * ring + 1) > (1 << codec_split_nx(bits)):
                combo = flat_q.astype(np.int64) * np.int64(1 << bits) + flat_cells
                _, first = np.unique(combo, return_index=True)
                uniqmask = np.zeros(flat_cells.size, dtype=bool)
                uniqmask[first] = True
            flat_cells, flat_q = flat_cells[uniqmask], flat_q[uniqmask]
            lo = np.searchsorted(refs["cell"], flat_cells, side="left")
            hi = np.searchsorted(refs["cell"], flat_cells, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                sel, rank = np.empty(0, np.int64), np.empty(0, np.int64)
                qidx = np.empty(0, np.int64)
                ridx = np.empty(0, np.int64)
            else:
                qidx = np.repeat(flat_q, counts)
                starts = np.repeat(np.cumsum(counts) - counts, counts)
                ridx = np.arange(total) - starts + np.repeat(lo, counts)
                dx = qlon[qidx] - refs["lon"][ridx]
                dy = qlat[qidx] - refs["lat"][ridx]
                dist = dx * dx + dy * dy
                sel, rank = _topk_sorted_queries(
                    qidx, dist, refs["id"][ridx], k
                )
            qsel = qidx[sel]
            rsel = ridx[sel]
            cols = {}
            keep = query_cols or [c for c in t.column_names]
            base = t.take(pa.array(qsel))
            for name in keep:
                cols[name] = base[name]
            cols[ref_id] = pa.array(refs["id"][rsel])
            dxs = qlon[qsel] - refs["lon"][rsel]
            dys = qlat[qsel] - refs["lat"][rsel]
            cols["dist2"] = pa.array(dxs * dxs + dys * dys)
            cols["rank"] = pa.array(rank.astype(np.int64))
            return pa.table(cols)

    from georay.runtime import per_process

    def fn(t: pa.Table) -> pa.Table:
        inst = per_process(key, Knn)
        return inst(t)

    return queries_ds.map_batches(fn, batch_format="pyarrow")


def knn_adaptive(
    queries_ds,
    refs_table: pa.Table,
    bits: int,
    k: int,
    query_cols: list[str] | None = None,
    ref_id: str = "ref_id",
    cell_col: str = "cell",
    record_ring_col: str | None = None,
):
    """EXACT global kNN via adaptive ring expansion (SURVEY.md N5's
    "expand k-ring rings until k found with ring-bound guarantee").

    Per batch, rings double (1, 2, 4, …) until each query holds ≥k
    candidates whose k-th distance is within the ring bound: any point
    outside Chebyshev cell ring d is at least ``d·min(lon_err, lat_err)``
    degrees away, so once ``sqrt(kth_dist2) <= d·min_err`` no outside point
    can displace the top-k. Distance = squared degrees (no wrap), matching
    the SQL oracle's cross-join ordering exactly.

    ``record_ring_col``: when set, the output gains an int64 column with
    the ring radius d at which each query RESOLVED — negative d when the
    whole-grid/brute-force fallback (not the ring-bound proof) produced the
    answer. Diagnostic: lets tests and ds.stats() audits pin which
    termination path was live (VERDICT r2 #8).
    """
    import ray

    from georay import codec

    rcell = refs_table[cell_col].to_numpy(zero_copy_only=False)
    order = np.argsort(rcell, kind="stable")
    packed = {
        "cell": rcell[order],
        "lon": refs_table["lon"].to_numpy(zero_copy_only=False)[order],
        "lat": refs_table["lat"].to_numpy(zero_copy_only=False)[order],
        "id": refs_table[ref_id].to_numpy(zero_copy_only=False)[order],
    }
    refs_ref = ray.put(packed)
    state_key = refs_ref.hex() + "-adaptive"
    nx, ny = codec.split_bits(bits)
    lon_err, lat_err = codec.error_with_precision(bits)
    min_err = min(lon_err, lat_err)
    max_ring = max(1 << nx, 1 << ny)

    class AdaptiveKnn:
        def __init__(self):
            self.refs = ray.get(refs_ref)

        def _candidates(self, qcell, d):
            # (2d+1)^2 cell enumeration explodes at large d (sparse refs at
            # fine precisions): past a threshold, fall back to brute force
            # against ALL refs — they are broadcast and bounded here, and
            # every ref is trivially inside a whole-grid ring
            if (2 * d + 1) ** 2 > 4096:
                nq, nr = qcell.shape[0], self.refs["id"].size
                return (
                    np.repeat(np.arange(nq), nr),
                    np.tile(np.arange(nr), nq),
                    True,  # brute force: result is globally exact already
                )
            ring_cells, valid = cells.k_ring(qcell, bits, d)
            flat_cells = ring_cells.reshape(-1).astype(np.int64)
            flat_q = np.repeat(np.arange(qcell.shape[0]), ring_cells.shape[1])
            ok = valid.reshape(-1)
            flat_cells, flat_q = flat_cells[ok], flat_q[ok]
            lo = np.searchsorted(self.refs["cell"], flat_cells, side="left")
            hi = np.searchsorted(self.refs["cell"], flat_cells, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                return np.empty(0, np.int64), np.empty(0, np.int64), False
            qidx = np.repeat(flat_q, counts)
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            ridx = np.arange(total) - starts + np.repeat(lo, counts)
            # large rings alias around the antimeridian wrap (ring wider
            # than the lon axis) -> the same (query, ref) pair can appear
            # twice; dedupe or the rank sequence counts duplicates
            pair = qidx * np.int64(self.refs["id"].size) + ridx
            uniq = np.unique(pair)
            return uniq // self.refs["id"].size, uniq % self.refs["id"].size, False

        def __call__(self, t: pa.Table) -> pa.Table:
            refs = self.refs
            qcell_all = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            qlon_all = t["lon"].to_numpy(zero_copy_only=False)
            qlat_all = t["lat"].to_numpy(zero_copy_only=False)
            n = qcell_all.shape[0]
            unresolved = np.arange(n)
            res_q: list[np.ndarray] = []
            res_r: list[np.ndarray] = []
            res_rank: list[np.ndarray] = []
            res_ring: list[np.ndarray] = []
            d = 1
            while unresolved.size:
                sub = unresolved
                qidx_s, ridx, exact = self._candidates(qcell_all[sub], d)
                if qidx_s.size:
                    dx = qlon_all[sub][qidx_s] - refs["lon"][ridx]
                    dy = qlat_all[sub][qidx_s] - refs["lat"][ridx]
                    dist = dx * dx + dy * dy
                    sel, rank = _topk_per_query(qidx_s, dist, refs["id"][ridx], k)
                    sq, sr, sd = qidx_s[sel], ridx[sel], dist[sel]
                    # per-query candidate count and kth distance
                    cnt = np.bincount(sq, minlength=sub.size)
                    kth = np.zeros(sub.size)
                    is_kth = rank == np.minimum(k, cnt[sq])
                    kth[sq[is_kth]] = sd[is_kth]
                    # STRICT inequality: a ref just outside ring d can sit
                    # at exactly d*min_err and win the oracle's id tie-break
                    done = (cnt >= min(k, refs["id"].size)) & (
                        np.sqrt(kth) < d * min_err
                    )
                else:
                    done = np.zeros(sub.size, dtype=bool)
                if exact or d >= max_ring:
                    done = np.ones(sub.size, dtype=bool)
                if done.any() and qidx_s.size:
                    keep = done[sq]
                    res_q.append(sub[sq[keep]])
                    res_r.append(sr[keep])
                    res_rank.append(rank[keep])
                    # ring-bound proof resolved these rows at radius d;
                    # negative marks the brute/whole-grid fallback path
                    res_ring.append(
                        np.full(int(keep.sum()), -d if exact else d, np.int64)
                    )
                unresolved = sub[~done]
                d *= 2
            qf = np.concatenate(res_q) if res_q else np.empty(0, np.int64)
            rf = np.concatenate(res_r) if res_r else np.empty(0, np.int64)
            kf = np.concatenate(res_rank) if res_rank else np.empty(0, np.int64)
            keep_cols = query_cols or list(t.column_names)
            base = t.select(keep_cols).take(pa.array(qf))
            cols = {name: base[name] for name in base.column_names}
            cols[ref_id] = pa.array(refs["id"][rf])
            dxs = qlon_all[qf] - refs["lon"][rf]
            dys = qlat_all[qf] - refs["lat"][rf]
            cols["dist2"] = pa.array(dxs * dxs + dys * dys)
            cols["rank"] = pa.array(kf.astype(np.int64))
            if record_ring_col is not None:
                cols[record_ring_col] = pa.array(
                    np.concatenate(res_ring)
                    if res_ring else np.empty(0, np.int64)
                )
            return pa.table(cols)

    from georay.runtime import per_process

    def fn(t: pa.Table) -> pa.Table:
        inst = per_process(state_key, AdaptiveKnn)
        return inst(t)

    return queries_ds.map_batches(fn, batch_format="pyarrow")


def _merge_topk_stage(local_ds, query_id: str, ref_id: str, k: int,
                      num_partitions: int):
    """Global top-k merge over per-batch local top-k rows: one
    ``runtime.by_key`` call per ``query_id`` bucket, each merging many
    queries in one vectorized sort."""

    def merge_part(t: pa.Table) -> pa.Table:
        q = t[query_id].to_numpy(zero_copy_only=False)
        d = t["dist2"].to_numpy(zero_copy_only=False)
        r = t[ref_id].to_numpy(zero_copy_only=False)
        sel, rank = _topk_per_query(q, d, r, k)
        return pa.table({
            query_id: q[sel],
            ref_id: r[sel],
            "dist2": d[sel],
            "rank": rank.astype(np.int64),
        })

    return by_key(local_ds, query_id, merge_part, pa.schema([
        (query_id, pa.int64()), (ref_id, pa.int64()),
        ("dist2", pa.float64()), ("rank", pa.int64())]),
        num_partitions=num_partitions)


def knn_shuffle(
    queries_ds,
    refs_ds,
    bits: int,
    k: int,
    ring: int = 1,
    query_id: str = "query_id",
    ref_id: str = "ref_id",
    cell_col: str = "cell",
    num_partitions: int | None = None,
    expand_side: str = "queries",
):
    """Big×big kNN: explode ONE side to its ring cells (vectorized, 1 row →
    ≤(2r+1)² rows), ``runtime.join`` on cell, then a TWO-PHASE top-k reduce:
    per-batch vectorized local top-k (``_topk_per_query``) cuts each query
    to ≤k candidates per batch, and the global merge runs one
    ``runtime.by_key`` call per ``query_id`` bucket —
    O(num_partitions) batches, each merging MANY queries in one vectorized
    sort, never O(queries) tiny groups. Shuffle keys: cell (join),
    query-hash bucket (reduce).
    ``query_id`` / ``ref_id`` must be integer-valued.

    ``expand_side``: which side pays the (2r+1)²× ring explosion before the
    exchange. Chebyshev ring membership is symmetric (ref ∈ ring(query) ⟺
    query ∈ ring(ref) — x wraps both ways, y bounds hold because both
    endpoints are themselves in-grid), so candidate pairs are IDENTICAL
    either way; pick the SMALLER side ("refs" when refs ≪ queries) and the
    all-to-all exchange shrinks by ~(2r+1)²/(1+|small|/|big|·(2r+1)²)
    (measured 1.7× wall on the 1.2M×300k probe).

    ``num_partitions=None`` → ``runtime.adaptive_partitions()`` (≈ cluster
    CPUs, VERDICT r4 #4; a syscall-taxed host favors HALVING it — see
    BASELINE.md partition forensics)."""
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    def explode(t: pa.Table) -> pa.Table:
        qcell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ring_cells, valid = cells.k_ring(qcell, bits, ring)
        m = ring_cells.shape[1]
        idx = np.repeat(np.arange(qcell.shape[0]), m)
        flat_ok = valid.reshape(-1)
        idx = idx[flat_ok]
        flat_cells = ring_cells.reshape(-1)[flat_ok].astype(np.int64)
        # wrap-aliasing dedup (ring wider than the lon grid -> duplicate
        # (query, cell) probes -> duplicated join candidates)
        if (2 * ring + 1) > (1 << codec_split_nx(bits)):
            combo = idx.astype(np.int64) * np.int64(1 << bits) + flat_cells
            _, first = np.unique(combo, return_index=True)
            idx, flat_cells = idx[first], flat_cells[first]
        base = t.drop_columns([cell_col]).take(pa.array(idx))
        return base.append_column(cell_col, pa.array(flat_cells))

    if expand_side == "queries":
        left = queries_ds.map_batches(explode, batch_format="pyarrow")
        right = refs_ds
    elif expand_side == "refs":
        left = queries_ds
        right = refs_ds.map_batches(explode, batch_format="pyarrow")
    else:
        raise ValueError(f"expand_side must be 'queries' or 'refs', got {expand_side!r}")
    joined = join(left, right, "inner", on=(cell_col,), left_suffix="_q",
                  right_suffix="_r", num_partitions=num_partitions)

    def local_topk(t: pa.Table) -> pa.Table:
        dx = t["lon_q"].to_numpy(zero_copy_only=False) - t["lon_r"].to_numpy(
            zero_copy_only=False
        )
        dy = t["lat_q"].to_numpy(zero_copy_only=False) - t["lat_r"].to_numpy(
            zero_copy_only=False
        )
        dist = dx * dx + dy * dy
        q = t[query_id].to_numpy(zero_copy_only=False)
        r = t[ref_id].to_numpy(zero_copy_only=False)
        sel, _rank = _topk_per_query(q, dist, r, k)
        return pa.table(
            {
                query_id: pa.array(q[sel]),
                ref_id: pa.array(r[sel]),
                "dist2": pa.array(dist[sel]),
            }
        )

    return _merge_topk_stage(
        joined.map_batches(local_topk, batch_format="pyarrow"),
        query_id, ref_id, k, num_partitions,
    )


def knn_cogroup(
    queries_ds,
    refs_ds,
    bits: int,
    k: int,
    ring: int = 1,
    query_id: str = "query_id",
    ref_id: str = "ref_id",
    cell_col: str = "cell",
    num_partitions: int | None = None,
):
    """Big×big kNN via a cogroup join: both sides are tagged, unioned and
    co-grouped by cell with ``runtime.by_key`` — one vectorized
    searchsorted join + local top-k per bucket, then the shared bucketed
    top-k merge.

    Same semantics (and SQL twin) as :func:`knn_shuffle`; different
    physical plan: a numpy per-bucket join instead of ``runtime.join``.
    Both run on tasks now. Measured on a 1-core host, 2 logical Ray CPUs,
    600k queries × 15k refs, ring 1, bits 10, k 5 (one run each): this
    plan 42.6 s, :func:`knn_shuffle` 42.9 s; while ``knn_shuffle`` used
    Ray's actor-based hash join it took 105.0 s against this plan's 48.0 s
    (an earlier 32-CPU run, 600k × 150k points, had the hash join ~3×
    faster).
    ``query_id`` / ``ref_id`` must be integer-valued.
    ``num_partitions=None`` → ``runtime.adaptive_partitions()``."""
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    def prep_queries(t: pa.Table) -> pa.Table:
        qcell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ring_cells, valid = cells.k_ring(qcell, bits, ring)
        m = ring_cells.shape[1]
        idx = np.repeat(np.arange(qcell.shape[0]), m)
        flat_ok = valid.reshape(-1)
        idx = idx[flat_ok]
        flat_cells = ring_cells.reshape(-1)[flat_ok].astype(np.int64)
        if (2 * ring + 1) > (1 << codec_split_nx(bits)):
            combo = idx.astype(np.int64) * np.int64(1 << bits) + flat_cells
            _, first = np.unique(combo, return_index=True)
            idx, flat_cells = idx[first], flat_cells[first]
        return pa.table(
            {
                "role": pa.array(np.zeros(idx.size, dtype=np.int8)),
                "rid": pa.array(
                    t[query_id].to_numpy(zero_copy_only=False)[idx]
                ),
                "lon": pa.array(t["lon"].to_numpy(zero_copy_only=False)[idx]),
                "lat": pa.array(t["lat"].to_numpy(zero_copy_only=False)[idx]),
                cell_col: pa.array(flat_cells),
            }
        )

    def prep_refs(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = cell.shape[0]
        return pa.table(
            {
                "role": pa.array(np.ones(n, dtype=np.int8)),
                "rid": pa.array(t[ref_id].to_numpy(zero_copy_only=False)),
                "lon": pa.array(t["lon"].to_numpy(zero_copy_only=False)),
                "lat": pa.array(t["lat"].to_numpy(zero_copy_only=False)),
                cell_col: pa.array(cell),
            }
        )

    u = queries_ds.map_batches(prep_queries, batch_format="pyarrow").union(
        refs_ds.map_batches(prep_refs, batch_format="pyarrow")
    )

    def per_bucket(g: pa.Table) -> pa.Table:
        role = g["role"].to_numpy()
        is_ref = role == 1
        empty = pa.table({query_id: pa.array([], pa.int64()),
                          ref_id: pa.array([], pa.int64()),
                          "dist2": pa.array([], pa.float64())})
        if not is_ref.any() or is_ref.all():
            return empty
        rcell = g[cell_col].to_numpy()[is_ref]
        order = np.argsort(rcell, kind="stable")
        rcell = rcell[order]
        rlon = g["lon"].to_numpy()[is_ref][order]
        rlat = g["lat"].to_numpy()[is_ref][order]
        rid_v = g["rid"].to_numpy()[is_ref][order]
        qsel = ~is_ref
        qcell = g[cell_col].to_numpy()[qsel]
        qlon = g["lon"].to_numpy()[qsel]
        qlat = g["lat"].to_numpy()[qsel]
        qid_v = g["rid"].to_numpy()[qsel]
        lo = np.searchsorted(rcell, qcell, side="left")
        hi = np.searchsorted(rcell, qcell, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty
        qidx = np.repeat(np.arange(qcell.shape[0]), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        ridx = np.arange(total) - starts + np.repeat(lo, counts)
        dx = qlon[qidx] - rlon[ridx]
        dy = qlat[qidx] - rlat[ridx]
        dist = dx * dx + dy * dy
        sel, _rank = _topk_per_query(qid_v[qidx], dist, rid_v[ridx], k)
        return pa.table({query_id: qid_v[qidx][sel],
                         ref_id: rid_v[ridx][sel], "dist2": dist[sel]})

    local = by_key(u, cell_col, per_bucket, pa.schema([
        (query_id, pa.int64()), (ref_id, pa.int64()),
        ("dist2", pa.float64())]), num_partitions=num_partitions)
    return _merge_topk_stage(local, query_id, ref_id, k, num_partitions)


def dwithin_ring_for(radius: float, bits: int) -> int:
    """Smallest Chebyshev cell ring guaranteed to contain every point within
    Euclidean degree distance ``radius``: |dlon|,|dlat| <= r, and two points
    whose lon differ by <= r sit at most floor(r/cell_w)+1 x-cells apart
    (same for lat), so the ring below never misses a true pair."""
    from georay import codec

    lon_err, lat_err = codec.error_with_precision(bits)
    return int(max(radius // lon_err, radius // lat_err)) + 1


def dwithin_ring(
    queries_ds,
    refs_table: pa.Table,
    bits: int,
    radius: float,
    query_cols: list[str] | None = None,
    ref_id: str = "ref_id",
    cell_col: str = "cell",
):
    """All (query, ref) pairs within Euclidean degree distance ``radius``
    (dist² <= radius², squared-degree metric — the same frozen expression
    order as the kNN family, so the SQL twin is bit-exact). Broadcast
    variant: refs shipped once as a cell-sorted lookup, candidates gathered
    from the ring returned by :func:`dwithin_ring_for` (EXACT — the ring
    provably covers the radius), then one vectorized distance filter. No
    shuffle at all; use :func:`dwithin_shuffle` when refs don't fit a
    broadcast. Output: query_cols, ``ref_id``, ``dist2``.
    """
    import ray

    ring = dwithin_ring_for(radius, bits)
    r2 = np.float64(radius) * np.float64(radius)
    rcell = refs_table[cell_col].to_numpy(zero_copy_only=False)
    order = np.argsort(rcell, kind="stable")
    packed = {
        "cell": rcell[order],
        "lon": refs_table["lon"].to_numpy(zero_copy_only=False)[order],
        "lat": refs_table["lat"].to_numpy(zero_copy_only=False)[order],
        "id": refs_table[ref_id].to_numpy(zero_copy_only=False)[order],
    }
    refs_ref = ray.put(packed)
    key = refs_ref.hex() + "-dwithin"

    class DWithin:
        def __init__(self):
            self.refs = ray.get(refs_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            refs = self.refs
            qcell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            qlon = t["lon"].to_numpy(zero_copy_only=False)
            qlat = t["lat"].to_numpy(zero_copy_only=False)
            n = qcell.shape[0]
            ring_cells, valid = cells.k_ring(qcell, bits, ring)
            flat_cells = ring_cells.reshape(-1).astype(np.int64)
            flat_q = np.repeat(np.arange(n), ring_cells.shape[1])
            ok = valid.reshape(-1)
            flat_cells, flat_q = flat_cells[ok], flat_q[ok]
            if (2 * ring + 1) > (1 << codec_split_nx(bits)):
                combo = flat_q.astype(np.int64) * np.int64(1 << bits) + flat_cells
                _, first = np.unique(combo, return_index=True)
                flat_cells, flat_q = flat_cells[first], flat_q[first]
            lo = np.searchsorted(refs["cell"], flat_cells, side="left")
            hi = np.searchsorted(refs["cell"], flat_cells, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                qsel = np.empty(0, np.int64)
                rsel = np.empty(0, np.int64)
                dist = np.empty(0, np.float64)
            else:
                qidx = np.repeat(flat_q, counts)
                starts = np.repeat(np.cumsum(counts) - counts, counts)
                ridx = np.arange(total) - starts + np.repeat(lo, counts)
                dx = qlon[qidx] - refs["lon"][ridx]
                dy = qlat[qidx] - refs["lat"][ridx]
                dist = dx * dx + dy * dy
                keep = dist <= r2
                qsel, rsel, dist = qidx[keep], ridx[keep], dist[keep]
            keep_cols = query_cols or list(t.column_names)
            base = t.take(pa.array(qsel))
            cols = {name: base[name] for name in keep_cols}
            cols[ref_id] = pa.array(refs["id"][rsel])
            cols["dist2"] = pa.array(dist)
            return pa.table(cols)

    from georay.runtime import per_process

    def fn(t: pa.Table) -> pa.Table:
        inst = per_process(key, DWithin)
        return inst(t)

    return queries_ds.map_batches(fn, batch_format="pyarrow")


def dwithin_shuffle(
    queries_ds,
    refs_ds,
    bits: int,
    radius: float,
    query_id: str = "query_id",
    ref_id: str = "ref_id",
    cell_col: str = "cell",
    num_partitions: int | None = None,
    expand_side: str = "queries",
):
    """Big×big distance-within join: ring-explode one side (the ring from
    :func:`dwithin_ring_for` provably covers ``radius``), hash-join on cell,
    one vectorized distance filter. Unlike kNN there is NO per-query reduce
    — a pair's membership depends only on the pair — so this is a single
    exchange with streaming filter output. ``expand_side`` as in
    :func:`knn_shuffle` (ring membership is symmetric; explode the smaller
    side). Output: ``query_id, ref_id, dist2``.
    ``num_partitions=None`` → ``runtime.adaptive_partitions()``.
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()
    ring = dwithin_ring_for(radius, bits)
    r2 = np.float64(radius) * np.float64(radius)

    def explode(t: pa.Table) -> pa.Table:
        qcell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ring_cells, valid = cells.k_ring(qcell, bits, ring)
        m = ring_cells.shape[1]
        idx = np.repeat(np.arange(qcell.shape[0]), m)
        flat_ok = valid.reshape(-1)
        idx = idx[flat_ok]
        flat_cells = ring_cells.reshape(-1)[flat_ok].astype(np.int64)
        if (2 * ring + 1) > (1 << codec_split_nx(bits)):
            combo = idx.astype(np.int64) * np.int64(1 << bits) + flat_cells
            _, first = np.unique(combo, return_index=True)
            idx, flat_cells = idx[first], flat_cells[first]
        base = t.drop_columns([cell_col]).take(pa.array(idx))
        return base.append_column(cell_col, pa.array(flat_cells))

    if expand_side == "queries":
        left = queries_ds.map_batches(explode, batch_format="pyarrow")
        right = refs_ds
    elif expand_side == "refs":
        left = queries_ds
        right = refs_ds.map_batches(explode, batch_format="pyarrow")
    else:
        raise ValueError(f"expand_side must be 'queries' or 'refs', got {expand_side!r}")
    joined = join(left, right, "inner", on=(cell_col,), left_suffix="_q",
                  right_suffix="_r", num_partitions=num_partitions)

    def dist_filter(t: pa.Table) -> pa.Table:
        dx = t["lon_q"].to_numpy(zero_copy_only=False) - t["lon_r"].to_numpy(
            zero_copy_only=False
        )
        dy = t["lat_q"].to_numpy(zero_copy_only=False) - t["lat_r"].to_numpy(
            zero_copy_only=False
        )
        dist = dx * dx + dy * dy
        keep = dist <= r2
        return pa.table(
            {
                query_id: t[query_id].filter(pa.array(keep)),
                ref_id: t[ref_id].filter(pa.array(keep)),
                "dist2": pa.array(dist[keep]),
            }
        )

    return joined.map_batches(dist_filter, batch_format="pyarrow")


def idw_broadcast(ds, q_ids, q_mx, q_my, k: int = 8,
                  mx_col: str = "mx", my_col: str = "my",
                  v_col: str = "v", id_col: str = "id"):
    """Inverse-distance-weighted interpolation at a SMALL broadcast query
    set over integer milli-degree coordinates: for each query, the k
    nearest data points (exact int64 squared distance, ties by id) blend as
    ``idw = Σ v/(d²+1) / Σ 1/(d²+1)`` with both sums accumulated in
    (d², id) order — a fixed-shape float tree an SQL pivot replays
    bit-exactly (the +1 Laplace term keeps coincident points finite).

    Plan: the query matrix rides the closure (broadcast once per worker
    process); each batch computes all query distances vectorized and keeps
    only its local top-k per query, so the exchange carries
    O(k × queries × blocks) rows; ``runtime.by_key`` on the query id
    finishes. Output: ``query_id, n_used, idw``.
    """
    q_ids = np.asarray(q_ids, np.int64)
    q_mx = np.asarray(q_mx, np.int64)
    q_my = np.asarray(q_my, np.int64)
    nq = q_ids.size

    def local(t: pa.Table) -> pa.Table:
        mx = t[mx_col].to_numpy(zero_copy_only=False).astype(np.int64)
        my = t[my_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[v_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        qs, ns, ds2, vs, ids_out = [], [], [], [], []
        for qi in range(nq):  # nq is small by contract (broadcast side)
            d2 = (mx - q_mx[qi]) ** 2 + (my - q_my[qi]) ** 2
            sel = np.lexsort((ids, d2))[:k]
            qs.append(np.full(sel.size, q_ids[qi], np.int64))
            ds2.append(d2[sel])
            vs.append(v[sel])
            ids_out.append(ids[sel])
        return pa.table({
            "query_id": np.concatenate(qs), "d2": np.concatenate(ds2),
            "v": np.concatenate(vs), "nid": np.concatenate(ids_out),
        })

    survivors = ds.map_batches(local, batch_format="pyarrow",
                               zero_copy_batch=True)

    def final(g: pa.Table) -> pa.Table:
        order = np.lexsort((g["nid"].to_numpy(), g["d2"].to_numpy()))[:k]
        d2 = g["d2"].to_numpy()[order]
        v = g["v"].to_numpy()[order]
        num = 0.0
        den = 0.0
        for i in range(d2.size):  # fixed-order sum: the float contract
            dp1 = float(d2[i] + 1)
            num = num + float(v[i]) / dp1
            den = den + 1.0 / dp1
        return pa.table({"query_id": [g["query_id"][0].as_py()],
                         "n_used": [d2.size], "idw": [num / den]})

    return by_key(survivors, "query_id", per_key("query_id", final),
                  pa.schema([("query_id", pa.int64()), ("n_used", pa.int64()),
                             ("idw", pa.float64())]))


def geodesic_rings(bits: int, d_meters: float,
                   radius_m: float = 6371008.8) -> tuple[int, np.ndarray]:
    """Latitude-adaptive candidate ring table for a GEODESIC distance-
    within join on the lon/lat grid: returns ``(ring_y, ring_x[H])`` where
    two points within great-circle distance d are provably at most
    ``ring_y`` y-cells apart, and — for a query in y-row qy — at most
    ``ring_x[qy]`` x-cells apart (``ring_x[qy] >= W`` means "all
    longitudes": near the poles a fixed-width lon ring is WRONG, a short
    geodesic crosses many meridians, so rows whose reachable band nears a
    pole degrade to a full-row sweep).

    Bounds (haversine kernel h = sin²(Δφ/2) + cosφa·cosφb·sin²(Δλ/2)):
    |Δφ| <= d/R always, and sin²(Δλ/2) <= sin²(d/2R)/(cosφa·cosφb) with
    cosφa/cosφb lower-bounded over the query row / reachable band edge —
    the Matuschek bounding-box argument, made rigorous per cell row."""
    import math

    from georay import codec

    nx, ny = codec.split_bits(bits)
    W, H = 1 << nx, 1 << ny
    lon_err, lat_err = codec.error_with_precision(bits)
    d_deg = math.degrees(d_meters / radius_m)
    ring_y = int(d_deg // lat_err) + 1
    t = math.sin(d_meters / (2.0 * radius_m))
    ring_x = np.empty(H, np.int64)
    for qy in range(H):
        y0 = qy * lat_err - 90.0
        a = max(abs(y0), abs(y0 + lat_err))  # worst |lat| in the query row
        b = a + ring_y * lat_err  # worst |lat| in the reachable band
        if b >= 90.0:
            ring_x[qy] = W  # band touches a pole: all longitudes
            continue
        denom = math.cos(math.radians(a)) * math.cos(math.radians(b))
        ratio = t / math.sqrt(denom)
        if ratio >= 1.0:
            ring_x[qy] = W
            continue
        dlam = math.degrees(2.0 * math.asin(ratio))
        ring_x[qy] = int(dlam // lon_err) + 1
    return ring_y, ring_x


def geodesic_dwithin_ring(
    queries_ds,
    refs_table: pa.Table,
    bits: int,
    d_meters: float,
    query_cols: list[str] | None = None,
    ref_id: str = "ref_id",
    cell_col: str = "cell",
    radius_m: float = 6371008.8,
):
    """All (query, ref) pairs within GREAT-CIRCLE distance ``d_meters`` —
    the geodesic counterpart of :func:`dwithin_ring`. The filter runs on
    the monotone haversine KERNEL (no asin/sqrt in the hot loop or the
    oracle boundary): keep iff
    ``sin²(Δφ/2) + cosφa·cosφb·sin²(Δλ/2) <= sin²(d/2R)``, with ONE
    frozen float64 expression tree mirrored by the SQL twin (numpy and
    DuckDB libm agree bit-for-bit on these inputs — the cell_area
    contract, re-probed for sin/cos at join time in tests).

    Candidates come from the latitude-adaptive ring of
    :func:`geodesic_rings` — fixed y half-width, PER-ROW x half-width
    (grows with |lat|, degrades to all-longitudes where the reachable
    band nears a pole, so polar geometry can't drop pairs). Broadcast
    variant: refs ship once, cell-sorted; candidate gather loops over the
    <= H distinct query rows per batch, vectorized inside each row.
    Output: query_cols, ``ref_id``, ``hav`` (the kernel value)."""
    import math

    import ray

    from georay import codec

    nx, ny = codec.split_bits(bits)
    W, H = 1 << nx, 1 << ny
    ring_y, ring_x = geodesic_rings(bits, d_meters, radius_m)
    t = math.sin(d_meters / (2.0 * radius_m))
    thresh = t * t

    rcell = refs_table[cell_col].to_numpy(zero_copy_only=False)
    order = np.argsort(rcell, kind="stable")
    packed = {
        "cell": rcell[order],
        "lon": refs_table["lon"].to_numpy(zero_copy_only=False)[order],
        "lat": refs_table["lat"].to_numpy(zero_copy_only=False)[order],
        "id": refs_table[ref_id].to_numpy(zero_copy_only=False)[order],
    }
    refs_ref = ray.put(packed)
    key = refs_ref.hex() + "-geodwithin"

    class GeoDWithin:
        def __init__(self):
            self.refs = ray.get(refs_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            refs = self.refs
            qcell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            qlon = t["lon"].to_numpy(zero_copy_only=False)
            qlat = t["lat"].to_numpy(zero_copy_only=False)
            qx, qy = codec.deinterleave(qcell, bits)
            qx = qx.astype(np.int64)
            qy = qy.astype(np.int64)
            out_q, out_r, out_h = [], [], []
            for row in np.unique(qy):
                rx = int(ring_x[row])
                dxs = (np.arange(-rx, rx + 1, dtype=np.int64)
                       if 2 * rx + 1 < W else np.arange(W, dtype=np.int64))
                dys = np.arange(-ring_y, ring_y + 1, dtype=np.int64)
                dys = dys[(row + dys >= 0) & (row + dys < H)]
                sel = np.flatnonzero(qy == row)
                # candidate cells: |sel| x (dxs*dys) grid, x wraps
                cx = (qx[sel][:, None] + dxs[None, :]) % W  # (s, dx)
                cand_x = np.repeat(cx, dys.size, axis=1).reshape(-1)
                cand_y = np.tile(np.tile(row + dys, dxs.size), sel.size)
                cand = codec.interleave(
                    cand_x.astype(np.uint64), cand_y.astype(np.uint64), bits
                ).astype(np.int64)
                flat_q = np.repeat(sel, dxs.size * dys.size)
                lo = np.searchsorted(refs["cell"], cand, side="left")
                hi = np.searchsorted(refs["cell"], cand, side="right")
                counts = hi - lo
                total = int(counts.sum())
                if total == 0:
                    continue
                qidx = np.repeat(flat_q, counts)
                starts = np.repeat(np.cumsum(counts) - counts, counts)
                ridx = np.arange(total) - starts + np.repeat(lo, counts)
                # frozen haversine-kernel expression tree (== SQL twin)
                sp = np.sin((np.radians(qlat[qidx])
                             - np.radians(refs["lat"][ridx])) / 2.0)
                sl = np.sin((np.radians(qlon[qidx])
                             - np.radians(refs["lon"][ridx])) / 2.0)
                h = sp * sp + (np.cos(np.radians(qlat[qidx]))
                               * np.cos(np.radians(refs["lat"][ridx]))) \
                    * (sl * sl)
                keep = h <= thresh
                out_q.append(qidx[keep])
                out_r.append(ridx[keep])
                out_h.append(h[keep])
            if out_q:
                qsel = np.concatenate(out_q)
                rsel = np.concatenate(out_r)
                hav = np.concatenate(out_h)
            else:
                qsel = np.empty(0, np.int64)
                rsel = np.empty(0, np.int64)
                hav = np.empty(0, np.float64)
            keep_cols = query_cols or list(t.column_names)
            base = t.take(pa.array(qsel))
            cols = {name: base[name] for name in keep_cols}
            cols[ref_id] = pa.array(refs["id"][rsel])
            cols["hav"] = pa.array(hav)
            return pa.table(cols)

    from georay.runtime import per_process

    def fn(t: pa.Table) -> pa.Table:
        inst = per_process(key, GeoDWithin)
        return inst(t)

    return queries_ds.map_batches(fn, batch_format="pyarrow")


def nearest_segment(points_ds, seg_table: pa.Table, point_id: str,
                    px_col: str, py_col: str, seg_id: str = "sid",
                    x1: str = "x1", y1: str = "y1",
                    x2: str = "x2", y2: str = "y2"):
    """MAP MATCHING: assign every point to its nearest segment by EXACT
    squared euclidean point-to-segment distance on integer coordinates —
    each candidate distance is the rational num/den with den = |v|² (the
    clamped-projection formula multiplied through), and the argmin runs
    as a cross-multiplied integer compare, so there is no float anywhere
    and ties break by ascending segment id deterministically.

    The segment table is the SMALL side (a road network, bounded):
    ``ray.put`` once, a running-best sweep over segments inside each
    ``map_batches`` task — vectorized over the batch's points per
    segment, O(points × segments) integer ops, no shuffle. Coordinates
    must satisfy |coord| ≤ 2^9 = 512 so every cross-multiplied compare
    fits int64: with |coord| ≤ G the differences are ≤ 2G, so
    w2, td ≤ 8·G², num ≤ w2·td ≤ 64·G⁴, and the compare product
    num·best_den ≤ 512·G⁶ < 2^63 requires G ≤ 2^9. Enforced with a
    ValueError on both the segment table (here) and every point batch
    (per task) — larger grids silently wrapped int64 before this guard.

    Output: ``point_id, seg_id, d2_num, d2_den``.
    """
    import ray

    from georay.runtime import per_process

    COORD_BOUND = 512  # 2^9 — see the docstring's overflow derivation

    sid_arr = seg_table[seg_id].to_numpy().astype(np.int64)
    order = np.argsort(sid_arr, kind="stable")  # ascending-sid sweep makes
    # the strict-< running best tie-break to the SMALLEST sid
    segs = (
        sid_arr[order],
        seg_table[x1].to_numpy().astype(np.int64)[order],
        seg_table[y1].to_numpy().astype(np.int64)[order],
        seg_table[x2].to_numpy().astype(np.int64)[order],
        seg_table[y2].to_numpy().astype(np.int64)[order],
    )
    for arr in segs[1:]:
        if arr.size and np.abs(arr).max() > COORD_BOUND:
            raise ValueError(
                "nearest_segment: |segment coord| must be <= %d to keep the "
                "cross-multiplied int64 compare exact (got %d)"
                % (COORD_BOUND, int(np.abs(arr).max()))
            )
    seg_ref = ray.put(segs)
    state_key = seg_ref.hex()

    class Loader:
        def __init__(self):
            self.segs = ray.get(seg_ref)

    def fn(t: pa.Table) -> pa.Table:
        sid, sx1, sy1, sx2, sy2 = per_process(state_key, Loader).segs
        pid = t[point_id].to_numpy(zero_copy_only=False).astype(np.int64)
        px = t[px_col].to_numpy(zero_copy_only=False).astype(np.int64)
        py = t[py_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if px.size:
            pmax = max(int(np.abs(px).max()), int(np.abs(py).max()))
            if pmax > 512:  # COORD_BOUND — same int64-overflow contract
                raise ValueError(
                    "nearest_segment: |point coord| must be <= 512 to keep "
                    "the cross-multiplied int64 compare exact (got %d)" % pmax
                )
        n = pid.size
        best_num = np.zeros(n, np.int64)
        best_den = np.ones(n, np.int64)
        best_sid = np.zeros(n, np.int64)
        have = np.zeros(n, bool)
        for j in range(sid.size):  # loop over SEGMENTS, vectorized in points
            vx, vy = sx2[j] - sx1[j], sy2[j] - sy1[j]
            td = vx * vx + vy * vy
            wx, wy = px - sx1[j], py - sy1[j]
            w2 = wx * wx + wy * wy
            if td == 0:
                num, den = w2, np.int64(1)
            else:
                tn = wx * vx + wy * vy
                ux, uy = px - sx2[j], py - sy2[j]
                u2 = ux * ux + uy * uy
                num = np.select(
                    [tn <= 0, tn >= td], [w2 * td, u2 * td],
                    default=w2 * td - tn * tn)
                den = np.int64(td)
            better = ~have | (num * best_den < best_num * den)
            best_num = np.where(better, num, best_num)
            best_den = np.where(better, den, best_den)
            best_sid = np.where(better, sid[j], best_sid)
            have |= better
        return pa.table({point_id: pid, seg_id: best_sid,
                         "d2_num": best_num, "d2_den": best_den})

    return points_ds.map_batches(fn, batch_format="pyarrow",
                                 zero_copy_batch=True)


def accessibility_2sfca(demand_ds, supply_table: pa.Table, bits: int,
                        radius: float, demand_id: str, pop_col: str,
                        supply_id: str, cap_col: str,
                        scale: int = 1_000_000):
    """Two-step floating catchment area (2SFCA) — the standard GIS
    accessibility score (Luo & Wang 2003 shape): each supply site j serves
    the demand population inside its catchment, each demand point i sums
    the supply-to-demand ratios of every site within reach.

    Step 1: (demand, supply) pairs within ``radius`` via the zero-shuffle
    broadcast ring join (:func:`dwithin_ring`), per-supply demand totals
    ``den_j = SUM(pop_i)`` (``group_agg``) collected to the driver —
    O(|supply|) rows, bounded because the supply side is the designated SMALL side
    (same bound as the hot-key collection in runtime).

    Step 2: per-supply ratio ``term_j = (scale * cap_j) // den_j`` is a
    plain int64, so the demand-side score ``A_i = SUM(term_j)`` is exact
    under any execution/combine order — no float ratios ever shuffle. The
    pair join is RECOMPUTED (not materialized): at scale the pair set
    dwarfs both inputs, and re-running a broadcast join streams at full
    rate while a checkpoint of it would not fit.

    Output: ``demand_id, access_scaled, n_fac`` (both int64; divide
    ``access_scaled`` by ``scale`` for the float score).
    """
    import ray

    pairs = dwithin_ring(
        demand_ds, supply_table, bits, radius,
        query_cols=[demand_id, pop_col], ref_id=supply_id,
    )

    def den_rows(t: pa.Table) -> pa.Table:
        sid = t[supply_id].to_numpy(zero_copy_only=False).astype(np.int64)
        pop = t[pop_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({supply_id: sid, "pop": pop})

    den_df = group_agg(
        pairs.map_batches(den_rows, batch_format="pyarrow",
                          zero_copy_batch=True),
        supply_id, {"den": ("sum", "pop")},
    ).to_pandas()  # O(|supply|) rows — the small side by construction

    cap_keys = supply_table[supply_id].to_numpy(zero_copy_only=False).astype(np.int64)
    caps = supply_table[cap_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(cap_keys, kind="stable")
    cap_keys, caps = cap_keys[order], caps[order]
    dk = den_df[supply_id].to_numpy().astype(np.int64)
    dv = den_df["den"].to_numpy().astype(np.int64)
    # suppliers with zero in-range demand never appear in pairs: term unused
    den_full = np.ones_like(caps)
    pos = np.searchsorted(cap_keys, dk)
    den_full[pos] = dv
    terms = (np.int64(scale) * caps) // den_full
    bundle = ray.put({"keys": cap_keys, "terms": terms})
    key = bundle.hex() + "-2sfca"
    from georay.runtime import per_process  # driver-side: closure captures it

    def score_rows(t: pa.Table) -> pa.Table:
        b = per_process(key, lambda: ray.get(bundle))
        did = t[demand_id].to_numpy(zero_copy_only=False).astype(np.int64)
        sid = t[supply_id].to_numpy(zero_copy_only=False).astype(np.int64)
        term = b["terms"][np.searchsorted(b["keys"], sid)]
        return pa.table({demand_id: did, "term": term})

    return group_agg(
        pairs.map_batches(score_rows, batch_format="pyarrow",
                          zero_copy_batch=True),
        demand_id, {"access_scaled": ("sum", "term"), "n_fac": ("count", None)},
    )


def huff_shares(demand_ds, supply_table: pa.Table, bits: int, radius: float,
                demand_id: str, supply_id: str, cap_col: str,
                scale: int = 1_000_000, share_scale: int = 1_000_000,
                num_partitions: int | None = None):
    """Huff gravity-model market shares: each demand point splits its
    patronage over the supply sites within ``radius`` proportionally to
    ``w_j = ⌊scale·cap_j / (1 + d²)⌋`` (capacity over squared distance;
    the +1 kills the d→0 singularity and the floor makes w int64, so
    every downstream sum is order-independent). Choose
    ``scale > 1 + radius²`` so w ≥ 1 and the per-demand denominator can
    never be zero.

    The structural complement of :func:`accessibility_2sfca`: there the
    denominator is per-SUPPLY (small side — driver-collected and
    broadcast); here it is per-DEMAND (big side), so it stays a Dataset
    and hash-joins back to the pair stream. The zero-shuffle broadcast
    ring join is recomputed for the second pass rather than materialized
    (same trade as 2SFCA: at scale the pair set dwarfs both inputs).

    Output: ``demand_id, supply_id, w, share_scaled`` with
    ``share_scaled = ⌊share_scale·w / Σ_k w_k⌋``.
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    pairs = dwithin_ring(
        demand_ds, supply_table, bits, radius,
        query_cols=[demand_id], ref_id=supply_id,
    )
    cap_keys = supply_table[supply_id].to_numpy(
        zero_copy_only=False).astype(np.int64)
    caps = supply_table[cap_col].to_numpy(
        zero_copy_only=False).astype(np.int64)
    order = np.argsort(cap_keys, kind="quicksort")
    cap_keys, caps = cap_keys[order], caps[order]

    def weigh(t: pa.Table) -> pa.Table:
        sid = t[supply_id].to_numpy(zero_copy_only=False).astype(np.int64)
        d2 = t["dist2"].to_numpy(zero_copy_only=False)
        cap = caps[np.searchsorted(cap_keys, sid)]
        w = np.floor((np.int64(scale) * cap).astype(np.float64)
                     / (1.0 + d2)).astype(np.int64)
        return pa.table({demand_id: t[demand_id], supply_id: pa.array(sid),
                         "w": w})

    weighted = pairs.map_batches(weigh, batch_format="pyarrow",
                                 zero_copy_batch=True)

    den = group_agg(weighted, demand_id, {"den": ("sum", "w")})

    # second pass over the recomputed pair stream, big-side hash join
    joined = join(weighted, den, "inner", on=(demand_id,),
                  num_partitions=num_partitions)

    def share(t: pa.Table) -> pa.Table:
        w = t["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["den"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            demand_id: t[demand_id], supply_id: t[supply_id],
            "w": pa.array(w),
            "share_scaled": (np.int64(share_scale) * w) // d,
        })

    return joined.map_batches(share, batch_format="pyarrow",
                              zero_copy_batch=True)

"""Mergeable sketches for approximate distinct counting + deterministic
hash-ordered sampling.

Both are built on ONE shared 64-bit mixer — splitmix64 (Steele et al.,
"Fast splittable pseudorandom number generators", OOPSLA 2014; public
domain reference constants) — implemented twice with bit-identical
results: vectorized numpy over uint64 here, and modular UBIGINT/HUGEINT
arithmetic in SQL (:func:`sql_splitmix64`, same idiom as the FNV-1a
simhash oracle in queries.py). That makes sketch CONTENTS (not just
estimates) oracle-comparable: the k minimum hash values a distributed
KMV run keeps are exactly the ``ORDER BY hash LIMIT k`` rows of SQL.

KMV (k minimum values; Bar-Yossef et al. 2002): keep the k smallest
distinct hash values of a column; estimate NDV as ``(k-1) * 2^64 /
h_(k)``. Partials are k-sized sets from each batch — trivially mergeable
(union → k smallest), so the exchange is O(k × batches), never O(rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay.hashing import splitmix64
from georay.ops.pairs import popcount64
from georay.runtime import by_key, group_agg, per_key

_U = np.uint64
_M64 = "18446744073709551616"  # 2^64 (HUGEINT modulus in the SQL twin)


def _sql_wrap64(expr: str) -> str:
    return f"CAST(((({expr}) % {_M64}) + {_M64}) % {_M64} AS UBIGINT)"


def _sql_mul64(a: str, b: int) -> str:
    """(a * b) mod 2^64 for UBIGINT ``a`` and a 64-bit constant, split into
    32-bit halves so no HUGEINT intermediate exceeds 2^97 (a full 64×64
    product overflows the 127-bit HUGEINT)."""
    lo, hi = b & 0xFFFFFFFF, b >> 32
    return _sql_wrap64(
        f"CAST({a} AS HUGEINT) * {lo} "
        f"+ ((CAST({a} AS HUGEINT) * {hi}) % 4294967296) * 4294967296"
    )


def sql_splitmix64(col: str) -> str:
    """DuckDB expression computing splitmix64 of BIGINT ``col`` as UBIGINT,
    bit-identical to :func:`splitmix64` (mod-2^64 via HUGEINT, xor/shift on
    UBIGINT). Negative inputs reinterpret as two's-complement uint64.
    The expression duplicates subterms (no CTEs) — for per-row use over
    tables prefer :func:`sql_splitmix64_subquery`, which is linear-size."""
    z0 = _sql_wrap64(f"CAST({col} AS HUGEINT) + 11400714819323198485")
    z1 = _sql_mul64(f"xor({z0}, {z0} >> 30)", 0xBF58476D1CE4E5B9)
    z2 = _sql_mul64(f"xor({z1}, {z1} >> 27)", 0x94D049BB133111EB)
    return f"xor({z2}, {z2} >> 31)"


def sql_splitmix64_subquery(src: str, col: str, out: str = "hu") -> str:
    """Parenthesized subquery: all columns of ``src`` (a table name, CTE
    name, or parenthesized subquery) plus ``out`` = splitmix64(col) as
    UBIGINT — staged through aliased columns so the SQL stays linear-size."""
    z0 = _sql_wrap64(f"CAST({col} AS HUGEINT) + 11400714819323198485")
    s1 = f"(SELECT *, {z0} AS sm_z0 FROM {src})"
    z1 = _sql_mul64("xor(sm_z0, sm_z0 >> 30)", 0xBF58476D1CE4E5B9)
    s2 = f"(SELECT *, {z1} AS sm_z1 FROM {s1})"
    z2 = _sql_mul64("xor(sm_z1, sm_z1 >> 27)", 0x94D049BB133111EB)
    s3 = f"(SELECT *, {z2} AS sm_z2 FROM {s2})"
    return (
        f"(SELECT * EXCLUDE (sm_z0, sm_z1, sm_z2), "
        f"xor(sm_z2, sm_z2 >> 31) AS {out} FROM {s3})"
    )


def sql_signed64(uexpr: str) -> str:
    """Reinterpret a UBIGINT expression as two's-complement BIGINT (the
    Arrow/pandas-friendly wire type both sides emit)."""
    return (
        f"CAST(CASE WHEN ({uexpr}) >= 9223372036854775808 "
        f"THEN CAST(({uexpr}) AS HUGEINT) - {_M64} "
        f"ELSE CAST(({uexpr}) AS HUGEINT) END AS BIGINT)"
    )


def kmv_sketch(ds, col: str, k: int = 256):
    """Distributed KMV sketch of ``col``'s distinct count.

    Per-batch partial: hash the batch's DISTINCT keys, keep the k smallest
    (unsigned order). Merge: union the k-sized partials and keep the k
    smallest distinct overall — the partials are tiny, so the final merge
    runs in one task. Output rows (``rank`` 1..k, ``h`` signed-int64 hash,
    unsigned-ascending), bit-comparable with ``SELECT DISTINCT hash ORDER
    BY hash LIMIT k``.
    """

    def partial(t: pa.Table) -> pa.Table:
        keys = np.unique(t[col].to_numpy(zero_copy_only=False))
        h = np.unique(splitmix64(keys.astype(np.int64).view(np.uint64)))
        return pa.table({"h": h[:k].view(np.int64)})

    def merge(t: pa.Table) -> pa.Table:
        h = np.unique(t["h"].to_numpy(zero_copy_only=False).view(np.uint64))
        h = h[:k]
        return pa.table(
            {"rank": np.arange(1, h.size + 1, dtype=np.int64),
             "h": h.view(np.int64)}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(merge, batch_format="pyarrow")
    )


def kmv_estimate(sketch_df, k: int = 256) -> float:
    """NDV estimate from a materialized sketch (pandas/arrow rows of the
    kmv_sketch output). Exact count when the sketch is not full."""
    h = np.asarray(sketch_df["h"], dtype=np.int64).view(np.uint64)
    if h.size < k:
        return float(h.size)
    kth = float(np.sort(h)[k - 1])
    return (k - 1) * (2.0 ** 64) / kth


def stratified_sample(ds, stratum_col: str, key_col: str, k: int):
    """Deterministic per-stratum sample: the k rows whose splitmix64(key)
    sorts first within each stratum (ties broken by key). Reproducible
    across runs/cluster sizes — the SQL twin is ``ROW_NUMBER() OVER
    (PARTITION BY stratum ORDER BY hash, key) <= k``.

    Two-phase: per-batch local top-k per stratum (output O(k × strata ×
    batches)), then ``runtime.by_key`` on the stratum for the exact
    global top-k. Scale contract: one bucket of survivors fits a worker.
    """
    import pandas as pd

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        h = splitmix64(df[key_col].to_numpy(np.int64).view(np.uint64))
        df = df.assign(_h=h.view(np.int64))
        df = df.sort_values([stratum_col, "_h", key_col],
                            key=_unsigned_sort_key, kind="quicksort")
        return df.groupby(stratum_col, sort=False).head(k)

    def final_topk(g: pa.Table) -> pd.DataFrame:
        df = g.to_pandas().sort_values(["_h", key_col],
                                       key=_unsigned_sort_key,
                                       kind="quicksort").head(k)
        out = df.drop(columns=["_h"]).reset_index(drop=True)
        out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return out

    return by_key(
        ds.map_batches(local_topk, batch_format="pandas"), stratum_col,
        per_key(stratum_col, final_topk),
        lambda s: pa.schema([f for f in s if f.name != "_h"]
                            + [pa.field("rank", pa.int64())]))


def _unsigned_sort_key(s):
    """sort key: order the signed-int64 hash column by its uint64 bits."""
    if s.name == "_h":
        return s.to_numpy(np.int64).view(np.uint64)
    return s


def _hll_rank(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register, rank) of splitmix64 hashes: register = top ``p`` bits,
    rank = 1 + trailing zeros of the remaining ``64-p`` bits."""
    w = h & np.uint64((1 << (64 - p)) - 1)
    with np.errstate(over="ignore"):
        rank = np.where(
            w == 0, np.int64(64 - p + 1), popcount64(w ^ (w - _U(1)))
        ).astype(np.int64)
    return (h >> np.uint64(64 - p)).astype(np.int64), rank


def hll_registers(ds, col: str, p: int = 8):
    """Distributed HyperLogLog sketch of ``col``'s distinct count
    (Flajolet et al. 2007), with the REGISTER CONTENTS (not the float
    estimate) as the oracle-comparable output.

    register = top ``p`` bits of splitmix64(key); rank = 1 + trailing
    zeros of the remaining ``64-p`` bits (the Flajolet–Martin variant of
    the geometric observable — integer-exact in SQL as
    ``bit_count(xor(w, w-1))``, no float log2 anywhere). Per-batch
    partials are (register, max rank) rows — at most ``2^p`` per batch,
    idempotent under max, so duplicate keys across batches are free and
    the combine sees O(2^p × batches) rows regardless of row count.
    Output: ``register, max_rank`` for OBSERVED registers (absent
    register ⇒ 0).
    """

    def rows(t: pa.Table) -> pa.Table:
        h = splitmix64(t[col].to_numpy(zero_copy_only=False)
                       .astype(np.int64).view(np.uint64))
        reg, rank = _hll_rank(h, p)
        return pa.table({"register": reg, "rank": rank})

    return group_agg(
        ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True),
        "register", {"max_rank": ("max", "rank")},
    )


def hll_estimate(sketch_df, p: int = 8) -> float:
    """NDV estimate from materialized hll_registers rows (bias-corrected
    harmonic mean + linear counting for the small range, per the paper)."""
    m = 1 << p
    ranks = np.zeros(m, dtype=np.int64)
    ranks[np.asarray(sketch_df["register"], dtype=np.int64)] = np.asarray(
        sketch_df["max_rank"], dtype=np.int64
    )
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(np.power(2.0, -ranks.astype(np.float64)))
    zeros = int(np.sum(ranks == 0))
    if e <= 2.5 * m and zeros:
        return float(m * np.log(m / zeros))  # linear counting
    return float(e)


def _mg_prune(keys: np.ndarray, counts: np.ndarray, k: int):
    """Misra–Gries prune to ≤ k entries: subtract the (k+1)-th largest
    count from all and keep positives (undercounts by ≤ that amount)."""
    if keys.size <= k:
        return keys, counts
    cut = np.partition(counts, counts.size - k - 1)[counts.size - k - 1]
    counts = counts - cut
    keep = counts > 0
    return keys[keep], counts[keep]


# sentinel key carrying the exact total row count through the MG merges
# (pruning never touches it); caller keys must not collide with it
_MG_TOTAL_KEY = np.int64(-(2**62) - 11)


def mg_candidates(ds, col: str, sketch_k: int):
    """Misra–Gries frequent-item candidates over ``col``: per-batch exact
    counts pruned to ``sketch_k`` entries, merged in one task (sum by key,
    prune again — Agarwal et al., "Mergeable summaries", PODS 2012), so
    the merge sees O(sketch_k × blocks) rows, never O(distinct keys).
    GUARANTEE: total undercount ≤ n/(sketch_k+1), so every key with true
    count > n/(sketch_k+1) survives to the output.

    Output: one row per surviving key (``col``, ``mg_count`` lower-bound
    count) plus the exact row total under the reserved sentinel key.
    """

    def partial(t: pa.Table) -> pa.Table:
        arr = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(arr, return_counts=True)
        u, c = _mg_prune(u, c.astype(np.int64), sketch_k)
        u = np.concatenate([u, [_MG_TOTAL_KEY]])
        c = np.concatenate([c, [np.int64(arr.size)]])
        return pa.table({col: u, "mg_count": c})

    def merge(t: pa.Table) -> pa.Table:
        keys = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = t["mg_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(keys, return_inverse=True)
        s = np.zeros(u.size, dtype=np.int64)
        np.add.at(s, inv, cnt)
        is_total = u == _MG_TOTAL_KEY
        ku, kc = _mg_prune(u[~is_total], s[~is_total], sketch_k)
        return pa.table(
            {
                col: np.concatenate([ku, u[is_total]]),
                "mg_count": np.concatenate([kc, s[is_total]]),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(merge, batch_format="pyarrow", batch_size=None)
    )


def heavy_hitters(ds, col: str, num: int, den: int,
                  sketch_k: int | None = None):
    """EXACT heavy hitters: keys whose count × den > total × num, found
    with a sketch-pruned two-pass plan — pass 1 builds the MG candidate
    set (tiny, ≤ sketch_k keys; guaranteed to contain every true heavy
    hitter since sketch_k+1 > den/num ⇒ n·num/den > n/(sketch_k+1)),
    pass 2 broadcasts it and exact-counts ONLY candidate rows
    (``group_agg``), so no O(distinct-keys) state ever assembles anywhere.
    Output: ``col, n`` for the exact heavy keys. ``ds`` is consumed twice
    — pass a re-readable (lazy) dataset, not a stream.
    """
    import ray

    if sketch_k is None:
        sketch_k = max(2 * den // num, 16)
    if sketch_k + 1 <= den // num:
        raise ValueError("sketch_k too small for the threshold guarantee")

    cand = mg_candidates(ds, col, sketch_k).to_pandas()
    keys = cand[col].to_numpy().astype(np.int64)
    total = int(cand.loc[keys == _MG_TOTAL_KEY, "mg_count"].iloc[0])
    cand_keys = np.sort(keys[keys != _MG_TOTAL_KEY])
    keys_ref = ray.put(cand_keys)

    def candidates(t: pa.Table) -> pa.Table:
        arr = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({col: arr[np.isin(arr, ray.get(keys_ref))]})

    exact = group_agg(
        ds.map_batches(candidates, batch_format="pyarrow", zero_copy_batch=True),
        col, {"n": ("count", None)},
    )

    def threshold(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(n * den > total * num))

    return exact.map_batches(threshold, batch_format="pyarrow")


def grouped_quantiles(ds, group_col: str, value_col: str,
                      qs: tuple[float, ...] = (0.25, 0.5, 0.9, 0.99)):
    """EXACT per-group discrete quantiles of an INTEGER-valued column via
    distributed histograms (no sort, no full-column collection): a
    (group, value) ``group_agg`` count — O(groups × distinct values)
    partial rows per batch — and a per-group final
    (tiny: histogram rows, not data rows) takes the value at index
    ``max(0, ceil(q·n) − 1)`` of the expanded sorted multiset — the
    DuckDB ``quantile_disc`` rule, validated empirically for n=1..79 ×
    8 quantiles (tools note in tests). Bounded-distinct contract: per-group
    distinct values must be far below row count (pre-bin continuous
    columns; integer cents/quantities qualify).

    Output: ``group_col, p<q·100> ...`` (int64 per quantile).
    """
    names = [f"p{int(round(q * 100)):02d}" for q in qs]
    out_schema = pa.schema(
        [(group_col, pa.string())] + [(nm, pa.int64()) for nm in names]
    )

    def rows(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({group_col: t[group_col].cast(pa.string()), "v": v})

    hist = group_agg(
        ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True),
        [group_col, "v"], {"n": ("count", None)},
    )

    def finalize(g: pa.Table) -> pa.Table:
        g = g.sort_by("v")
        counts = g["n"].to_numpy()
        vals = g["v"].to_numpy()
        cum = np.cumsum(counts)
        n = int(cum[-1])
        row = {group_col: [g[group_col][0].as_py()]}
        for q, nm in zip(qs, names):
            idx = max(0, int(np.ceil(q * n)) - 1)  # quantile_disc rule
            row[nm] = [int(vals[np.searchsorted(cum, idx, side="right")])]
        return pa.table(row)

    return by_key(hist, group_col, per_key(group_col, finalize), out_schema)


def _order_keys(v: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 key of an int64 or float64 column: integer
    compares and integer bin splits on the key are then EXACT — no float
    boundary drift between passes. int64 → flip the sign bit; float64 →
    the radix-sort IEEE trick (negative: flip all bits, else flip sign).
    NaNs unsupported (same contract as quantile_disc ignoring them is NOT
    implemented here — filter upstream)."""
    if v.dtype.kind == "f":
        b = v.astype(np.float64).view(np.uint64)
        mask = np.where(
            (b >> np.uint64(63)).astype(bool),
            np.uint64(0xFFFFFFFFFFFFFFFF),
            np.uint64(0x8000000000000000),
        )
        return b ^ mask
    return v.astype(np.int64).view(np.uint64) ^ np.uint64(0x8000000000000000)


def grouped_quantiles_binned(ds, group_col: str, value_col: str,
                             qs: tuple[float, ...] = (0.25, 0.5, 0.9, 0.99),
                             n_bins: int = 512,
                             refine_limit: int = 20_000,
                             _debug: dict | None = None):
    """EXACT per-group discrete quantiles for HIGH-CARDINALITY value
    columns — the bounded-exchange variant of :func:`grouped_quantiles`
    (whose O(groups × distinct) histograms blow up on continuous domains).

    Iterative range refinement over an ORDER-PRESERVING uint64 key
    (:func:`_order_keys` — integer bin arithmetic, so every pass's
    membership test is exact and bins nest perfectly; no float boundary
    drift):

    1. **Initial pass** — per (group, bin) counts over the global key
       range (``bin = (key − kmin) // ceil(span / n_bins)``). Gives each
       group's total n, hence each quantile's target index
       ``k = max(0, ceil(q·n) − 1)`` (the quantile_disc rule), the bin
       containing it, and the remaining in-range rank.
    2. **Refinement loop** — every still-open (group, q) candidate re-bins
       its current key range into ``n_bins`` sub-bins (rows outside any
       candidate range collapse batch-locally to nothing); a candidate
       closes when its range holds ≤ ``refine_limit`` rows or one key.
       Skew-proof: a bin hiding 99% of the mass (e.g. lognormal tails)
       just refines again — each level divides the range by ``n_bins``, so
       ≤ ceil(64 / log2(n_bins)) levels ever happen (≤ 8 at the default
       512), and in practice counts hit ``refine_limit`` in 1–2.
    3. **Exact refine** — an exact (candidate, value, count) histogram of
       the closed ranges (≤ ``refine_limit`` rows each by construction);
       the quantile is the value at the remaining rank.

    Every exchange is O(candidates × n_bins × batches) or
    O(candidates × refine_limit) rows — independent of value cardinality;
    the price is one extra full scan per refinement level (driver loop,
    ~2 levels in practice — at 100 TB prefer :func:`grouped_quantiles`
    only for provably narrow int domains). Values int64 or float64
    (output dtype follows); result IDENTICAL to DuckDB ``quantile_disc``.
    ``_debug``, if a dict, receives ``bin_hist_rows`` (max histogram rows
    in any binned pass), ``refine_rows`` (exact-pass rows) and
    ``n_levels`` for the bounded-exchange tests."""
    import pandas as pd
    import ray

    from georay.runtime import table_from_pandas

    names = [f"p{int(round(q * 100)):02d}" for q in qs]
    sch = ds.schema()
    is_float = pa.types.is_floating(
        sch.types[list(sch.names).index(value_col)]
    )
    out_type = pa.float64() if is_float else pa.int64()
    out_schema = pa.schema(
        [(group_col, pa.string())] + [(nm, out_type) for nm in names]
    )

    def keyed(t: pa.Table):
        g = t[group_col].to_numpy(zero_copy_only=False)
        key = _order_keys(t[value_col].to_numpy(zero_copy_only=False))
        return g, key

    # ---- pass 0: global key range (one row per batch to the driver).
    # Keys travel sign-flipped as int64 (order-preserving).
    def krange(t: pa.Table) -> pa.Table:
        _, key = keyed(t)
        if key.size == 0:
            return pa.table({"p_min": pa.array([], pa.int64()),
                             "p_max": pa.array([], pa.int64())})
        sk = (key ^ np.uint64(1 << 63)).view(np.int64)
        return pa.table({"p_min": pa.array([sk.min()]),
                         "p_max": pa.array([sk.max()])})

    rng = ds.map_batches(
        krange, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    kmin = int(rng["p_min"].min()) + (1 << 63)
    kmax = int(rng["p_max"].max()) + (1 << 63)

    def width_of(lo: int, hi: int) -> int:  # ceil-div, Python ints (no wrap)
        return max(1, -((lo - hi) // n_bins))

    # ---- pass 1: per (group, bin) histogram over the global range
    w0 = width_of(kmin, kmax + 1)

    def count_rows(fn, keys):
        return group_agg(
            ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True),
            keys, {"n": ("count", None)},
        ).to_pandas()

    def rows1(t: pa.Table) -> pa.Table:
        _, key = keyed(t)
        b = ((key - np.uint64(kmin)) // np.uint64(w0)).astype(np.int64)
        return pa.table({group_col: t[group_col].cast(pa.string()), "bin": b})

    hist1 = count_rows(rows1, [group_col, "bin"])
    max_hist_rows = len(hist1)

    # candidates: one per (group, q) — (lo, hi) key range, remaining rank,
    # rows in range. Driver-side; O(groups × len(qs)).
    cands: list[dict] = []
    for grp, gdf in hist1.groupby(group_col):
        gdf = gdf.sort_values("bin")
        cnt = gdf["n"].to_numpy()
        bins = gdf["bin"].to_numpy()
        cum = np.cumsum(cnt)
        n = int(cum[-1])
        for q, nm in zip(qs, names):
            k = max(0, int(np.ceil(q * n)) - 1)  # quantile_disc rule
            j = int(np.searchsorted(cum, k, side="right"))
            lo = kmin + int(bins[j]) * w0
            cands.append({
                "cand": len(cands), "group": grp, "q": nm,
                "lo": lo, "hi": min(lo + w0, kmax + 1),
                "rank": k - (int(cum[j - 1]) if j > 0 else 0),
                "rows": int(cnt[j]),
            })

    # ---- refinement loop: re-bin every still-open candidate's range
    levels = 0
    while True:
        open_c = [c for c in cands
                  if c["rows"] > refine_limit and c["hi"] - c["lo"] > 1]
        if not open_c:
            break
        levels += 1
        spec = [(c["cand"], c["group"], c["lo"], c["hi"],
                 width_of(c["lo"], c["hi"])) for c in open_c]
        spec_ref = ray.put(spec)

        def rows_r(t: pa.Table) -> pa.Table:
            g, key = keyed(t)
            cid_o, bin_o = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
            for cid, grp, lo, hi, w in ray.get(spec_ref):
                m = (g == grp) & (key >= np.uint64(lo)) & (key < np.uint64(hi))
                b = ((key[m] - np.uint64(lo)) // np.uint64(w)).astype(np.int64)
                cid_o.append(np.full(b.size, cid, dtype=np.int64))
                bin_o.append(b)
            return pa.table({"cand": np.concatenate(cid_o),
                             "bin": np.concatenate(bin_o)})

        hist_r = count_rows(rows_r, ["cand", "bin"])
        max_hist_rows = max(max_hist_rows, len(hist_r))
        by_cand = dict(tuple(hist_r.groupby("cand")))
        for c in open_c:
            gdf = by_cand[c["cand"]].sort_values("bin")
            cnt = gdf["n"].to_numpy()
            cum = np.cumsum(cnt)
            j = int(np.searchsorted(cum, c["rank"], side="right"))
            w = width_of(c["lo"], c["hi"])
            lo = c["lo"] + int(gdf["bin"].to_numpy()[j]) * w
            c["hi"] = min(lo + w, c["hi"])
            c["lo"] = lo
            c["rank"] -= int(cum[j - 1]) if j > 0 else 0
            c["rows"] = int(cnt[j])

    # ---- exact refine of the closed ranges
    spec = [(c["cand"], c["group"], c["lo"], c["hi"]) for c in cands]
    spec_ref = ray.put(spec)

    v_type = np.float64 if is_float else np.int64

    def rows_x(t: pa.Table) -> pa.Table:
        g, key = keyed(t)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(v_type)
        cid_o, v_o = [np.empty(0, np.int64)], [np.empty(0, v_type)]
        for cid, grp, lo, hi in ray.get(spec_ref):
            m = (g == grp) & (key >= np.uint64(lo)) & (key < np.uint64(hi))
            cid_o.append(np.full(int(m.sum()), cid, dtype=np.int64))
            v_o.append(v[m])
        return pa.table({"cand": np.concatenate(cid_o),
                         "v": np.concatenate(v_o)})

    exact = count_rows(rows_x, ["cand", "v"])
    if _debug is not None:
        _debug["bin_hist_rows"] = max_hist_rows
        _debug["refine_rows"] = len(exact)
        _debug["n_levels"] = levels

    by_cand = dict(tuple(exact.groupby("cand")))
    rows: dict[str, dict] = {}
    for c in cands:
        gdf = by_cand[c["cand"]].sort_values("v")
        cum = np.cumsum(gdf["n"].to_numpy())
        j = int(np.searchsorted(cum, c["rank"], side="right"))
        val = gdf["v"].to_numpy()[j]
        rows.setdefault(c["group"], {})[c["q"]] = (
            float(val) if is_float else int(val)
        )

    out = pd.DataFrame(
        [{group_col: grp, **vals} for grp, vals in sorted(rows.items())],
        columns=[group_col] + names,
    )
    # result is O(groups) rows computed driver-side; re-enter Ray Data so
    # callers compose it like every other op
    return ray.data.from_arrow(table_from_pandas(out, schema=out_schema))


def weighted_sample(ds, key_col: str, weight_col: str, k: int):
    """Deterministic weighted sample without replacement — sequential
    Poisson sampling (Ohlsson 1998): priority = u / w with
    ``u = (splitmix64(key) >> 11) · 2⁻⁵³`` a hash-derived uniform in
    [0, 1); the k smallest priorities win, inclusion probability
    asymptotically ∝ w. Pure {shift, cast, *, /} float64 ops in fixed
    order, so the SQL twin replays the priorities bit-exactly, and the
    sample is reproducible across runs, partitionings, and cluster sizes.

    Plan: priorities + per-batch local bottom-k inside one map (only
    O(k × batches) rows reach the exchange), global sort + limit, rank
    stamped in the final single block. Output: ``key, priority, rank``.
    """
    import pandas as pd

    from georay.runtime import table_from_pandas

    inv53 = 2.0 ** -53

    def prio(t: pa.Table) -> pa.Table:
        key = t[key_col].to_numpy(zero_copy_only=False)
        h = splitmix64(key.astype(np.int64).view(np.uint64))
        u = (h >> _U(11)).astype(np.float64) * inv53
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        p = u / w
        keep = np.lexsort((key, p))[:k]  # local bottom-k
        return pa.table({key_col: pa.array(key[keep]),
                         "priority": pa.array(p[keep])})

    top = ds.map_batches(
        prio, batch_format="pyarrow", zero_copy_batch=True
    ).sort(["priority", key_col]).limit(k)

    def add_rank(df: "pd.DataFrame") -> pa.Table:
        df = df.sort_values(["priority", key_col]).reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return table_from_pandas(df)

    return top.repartition(1).map_batches(add_rank, batch_format="pandas")


def grouped_median2(ds, group_col: str, value_col: str):
    """EXACT per-group INTERPOLATED median (the percentile_cont rule) of
    an integer column, emitted as ``median2 = lo + hi`` — the sum of the
    two middle order statistics (twice the middle one when n is odd) — so
    the result stays int64-exact and no float division ever executes;
    callers divide by 2 for the conventional value.

    Same distributed-histogram plan as :func:`grouped_quantiles` (one
    (group, value) ``group_agg`` count, per-group finalize over histogram
    rows); same bounded-distinct contract — for
    high-cardinality/continuous domains use the
    :func:`grouped_quantiles_binned` refinement shape instead.

    Output: ``group_col (int64), n_rows, median2``.
    """
    out_schema = pa.schema([(group_col, pa.int64()),
                            ("n_rows", pa.int64()),
                            ("median2", pa.int64())])

    def rows(t: pa.Table) -> pa.Table:
        g = t[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({group_col: g, "v": v})

    hist = group_agg(
        ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True),
        [group_col, "v"], {"n": ("count", None)},
    )

    def finalize(g: pa.Table) -> pa.Table:
        g = g.sort_by("v")
        counts = g["n"].to_numpy()
        vals = g["v"].to_numpy()
        cum = np.cumsum(counts)
        n = int(cum[-1])
        lo = int(vals[np.searchsorted(cum, (n - 1) // 2, side="right")])
        hi = int(vals[np.searchsorted(cum, n // 2, side="right")])
        return pa.table({group_col: [g[group_col][0].as_py()],
                         "n_rows": [n], "median2": [lo + hi]})

    return by_key(hist, group_col, per_key(group_col, finalize), out_schema)


def ks2_statistic(ds, value_col: str, flag_col: str):
    """Two-sample Kolmogorov–Smirnov distance between the value
    distributions of flag 1 vs flag 2 rows — INTEGER-EXACT: the statistic
    D = max_v |F₁(v) − F₂(v)| is cross-multiplied to
    ``ks_num = max |n₂·cum₁(v) − n₁·cum₂(v)|`` (tie → smallest v), so no
    float CDF ever compares; callers divide by ``ks_den = n₁·n₂``. The
    drift / shard-skew detector for curation pipelines.

    Plan: one (value, flag) ``group_agg`` histogram — bounded-distinct
    contract as :func:`grouped_quantiles` (pre-bin continuous values) —
    then a driver-side cumulative pass over the ≤|distinct| histogram
    rows. Input: ``value_col`` int64, ``flag_col`` ∈ {1, 2}.

    Output (one row): ``n1, n2, ks_num, ks_den, arg_value, ks``.
    """
    import pandas as pd

    def rows(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        f = t[flag_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"val": v, "flag": f - 1})

    hist = group_agg(
        ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True),
        ["val", "flag"], {"n": ("count", None)},
    ).to_pandas()  # bounded by distinct binned values

    val = hist["val"].to_numpy()
    flg = hist["flag"].to_numpy()
    n = hist["n"].to_numpy()
    order = np.argsort(val * 2 + flg, kind="quicksort")
    val, flg, n = val[order], flg[order], n[order]
    uvals = np.unique(val)
    c1 = np.zeros(uvals.size, np.int64)
    c2 = np.zeros(uvals.size, np.int64)
    pos = np.searchsorted(uvals, val)
    np.add.at(c1, pos[flg == 0], n[flg == 0])
    np.add.at(c2, pos[flg == 1], n[flg == 1])
    cum1, cum2 = np.cumsum(c1), np.cumsum(c2)
    n1, n2 = int(cum1[-1]), int(cum2[-1])
    dev = np.abs(n2 * cum1 - n1 * cum2)
    i = int(np.argmax(dev))  # first max = smallest value on ties
    return pd.DataFrame({
        "n1": [np.int64(n1)], "n2": [np.int64(n2)],
        "ks_num": [np.int64(dev[i])],
        "ks_den": [np.int64(n1) * np.int64(n2)],
        "arg_value": [np.int64(uvals[i])],
        "ks": [float(dev[i]) / float(n1 * n2)],
    })


def hll_registers_by(ds, group_col: str, col: str, p: int = 8):
    """Per-GROUP HyperLogLog sketches — :func:`hll_registers` partitioned
    by a key column (tile, shard, tenant): one (group, register, max rank)
    row per observed pair; max-merge is idempotent so duplicate keys cost
    nothing and the combine sees O(groups × 2^p × batches) rows
    regardless of row count. Register CONTENTS are the output — the same
    oracle-comparable contract as the global sketch.

    Output: ``group_col, register, max_rank``.
    """

    def rows(t: pa.Table) -> pa.Table:
        g = t[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(t[col].to_numpy(
            zero_copy_only=False).astype(np.int64).view(np.uint64))
        reg, rank = _hll_rank(h, p)
        return pa.table({group_col: g, "register": reg, "rank": rank})

    return group_agg(
        ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True),
        [group_col, "register"], {"max_rank": ("max", "rank")},
    )


def ks2_by_group(ds, group_col: str, value_col: str, flag_col: str):
    """Per-GROUP two-sample KS distance (:func:`ks2_statistic` segmented
    by a key column — the drift-per-shard / drift-per-class report):
    integer cross-multiplied CDF deviation per group, smallest-value
    tiebreak, groups missing either sample dropped (ks undefined).

    One (group, value, flag) ``group_agg`` histogram (bounded-distinct
    contract), then a segmented driver-side pass: one sort, per-group
    boundary-reset cumsums, reduceat argmax — no per-group Python loop.

    Output: ``group_col, n1, n2, ks_num, ks_den, arg_value, ks``.
    """
    import pandas as pd

    def rows(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        f = t[flag_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"g": t[group_col], "v": v, "f": f})

    hist = group_agg(
        ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True),
        ["g", "v", "f"], {"n": ("count", None)},
    ).to_pandas()  # bounded: groups × distinct binned values × 2

    if not len(hist):  # empty/fully-filtered input: new[0] below would IndexError
        return pd.DataFrame({
            group_col: np.empty(0, dtype=object),
            "n1": np.empty(0, np.int64), "n2": np.empty(0, np.int64),
            "ks_num": np.empty(0, np.int64), "ks_den": np.empty(0, np.int64),
            "arg_value": np.empty(0, np.int64),
            "ks": np.empty(0, np.float64),
        })

    codes, uniq = pd.factorize(hist["g"].to_numpy())
    v = hist["v"].to_numpy().astype(np.int64)
    f = hist["f"].to_numpy().astype(np.int64)
    n = hist["n"].to_numpy().astype(np.int64)
    order = np.lexsort((f, v, codes))
    cg, cv, cf, cn = codes[order], v[order], f[order], n[order]
    # collapse to one row per (group, value) with per-flag counts
    new = np.empty(cg.size, dtype=bool)
    new[0] = True
    new[1:] = (cg[1:] != cg[:-1]) | (cv[1:] != cv[:-1])
    ridx = np.cumsum(new) - 1
    m = int(ridx[-1]) + 1 if cg.size else 0
    c1 = np.zeros(m, np.int64)
    c2 = np.zeros(m, np.int64)
    np.add.at(c1, ridx[cf == 1], cn[cf == 1])
    np.add.at(c2, ridx[cf == 2], cn[cf == 2])
    rg = cg[new]
    rv = cv[new]
    starts = np.flatnonzero(
        np.concatenate(([True], rg[1:] != rg[:-1]))).astype(np.int64)
    counts = np.diff(np.append(starts, m)).astype(np.int64)
    # per-group cumsums via global cumsum minus repeated base
    def seg_cumsum(x):
        run = np.cumsum(x)
        base = np.concatenate(
            ([0], run[starts[1:] - 1])) if starts.size else run[:0]
        return run - np.repeat(base, counts)

    cum1, cum2 = seg_cumsum(c1), seg_cumsum(c2)
    ends = starts + counts - 1
    n1 = np.repeat(cum1[ends], counts)
    n2 = np.repeat(cum2[ends], counts)
    dev = np.abs(n2 * cum1 - n1 * cum2)
    mx = np.maximum.reduceat(dev, starts)
    pos = np.arange(m, dtype=np.int64) - np.repeat(starts, counts)
    cand = np.where(dev == np.repeat(mx, counts), pos, np.int64(1) << 62)
    sel = starts + np.minimum.reduceat(cand, starts)
    gn1, gn2 = cum1[ends], cum2[ends]
    keep = (gn1 > 0) & (gn2 > 0)
    return pd.DataFrame({
        group_col: np.asarray(uniq)[rg[sel][keep]],
        "n1": gn1[keep], "n2": gn2[keep],
        "ks_num": mx[keep].astype(np.int64),
        "ks_den": (gn1 * gn2)[keep],
        "arg_value": rv[sel][keep],
        "ks": (mx[keep].astype(np.float64)
               / (gn1 * gn2)[keep].astype(np.float64)),
    }).sort_values(group_col).reset_index(drop=True)

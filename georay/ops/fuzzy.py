"""SymSpell-style edit-distance-1 fuzzy string matching (fuzzy dedup).

Blocking is Garbe's symmetric-delete neighborhood (public algorithm):
two strings at edit distance ≤ 1 always share a member of each other's
deletion neighborhood {s} ∪ {s with one byte removed}, so candidates are
exactly the strings sharing a variant — no all-pairs stage, the scale
path for fuzzy dedup of titles/names in an LLM-data pipeline. Variants
are hashed to 64 bits and never shipped as strings; hash collisions are
HARMLESS because every candidate passes an exact vectorized verify.

Pipeline (every exchange is ``runtime.by_key``):
  per-batch distinct → exact distinct by string → per-length vectorized
  variant hashing → by variant hash, with capped pair expansion
  (ops.pairs.grouped_pair_indices) + exact verify INSIDE the bucket (only
  true pairs shuffle on) → exact pair dedup by pair.

Semantics: BYTE-level edit distance over UTF-8 (≡ character-level for
ASCII; multibyte text diverges — documented, the oracle corpus is ASCII).
Strings containing NUL bytes are not supported (padding sentinel).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import runtime
from georay.ops import buckets
from georay.ops import pairs as pairs_ops

_FZ_BASE = np.uint64(1099511628211)  # FNV64 prime — any odd mixer works,
_FZ_SEED = np.uint64(0x9E3779B97F4A7C15)  # collisions only add candidates
_fz_powers_cache: dict[int, np.ndarray] = {}


def _fz_powers(n: int) -> np.ndarray:
    got = _fz_powers_cache.get(0)
    if got is None or got.size < n:
        size = max(n, 128)
        p = np.empty(size, dtype=np.uint64)
        p[0] = np.uint64(1)
        with np.errstate(over="ignore"):
            for i in range(1, size):
                p[i] = p[i - 1] * _FZ_BASE
        _fz_powers_cache[0] = p
        got = p
    return got


def _hash_rows(m: np.ndarray) -> np.ndarray:
    """uint64 polynomial hash of each row of a uint8 matrix [n, L]."""
    n, L = m.shape
    p = _fz_powers(L + 1)
    with np.errstate(over="ignore"):
        if L == 0:
            return np.full(n, _FZ_SEED, dtype=np.uint64)
        return (
            (m.astype(np.uint64) * p[L - 1::-1][None, :]).sum(
                axis=1, dtype=np.uint64)
            + _FZ_SEED * p[L]
        )


def _byte_matrix(su: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Unicode array → (uint8 matrix [n, W] zero-padded, byte lengths, W)."""
    bs = np.char.encode(su, "utf-8")
    w = max(1, bs.dtype.itemsize)
    m = np.zeros((su.shape[0], w), dtype=np.uint8)
    if bs.dtype.itemsize:
        m[:, : bs.dtype.itemsize] = bs.view(np.uint8).reshape(su.shape[0], -1)
    return m, np.char.str_len(bs).astype(np.int64), w


def verify_edit1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact byte-level edit-distance ≤ 1 check, vectorized over pairs.

    Same length → ≤1 mismatching byte. Length ±1 → the longer string with
    its FIRST mismatching byte removed must equal the shorter (if any
    single deletion works, the first-mismatch deletion works)."""
    n = len(a)
    if n == 0:
        return np.zeros(0, dtype=bool)
    au = np.asarray(a, dtype="U")
    bu = np.asarray(b, dtype="U")
    ma, la, wa = _byte_matrix(au)
    mb, lb, wb = _byte_matrix(bu)
    w = max(wa, wb)
    if wa < w:
        ma = np.pad(ma, ((0, 0), (0, w - wa)))
    if wb < w:
        mb = np.pad(mb, ((0, 0), (0, w - wb)))
    ok = np.zeros(n, dtype=bool)
    same = la == lb
    if same.any():
        ok[same] = (ma[same] != mb[same]).sum(axis=1) <= 1
    one = np.abs(la - lb) == 1
    if one.any():
        idx = np.flatnonzero(one)
        swap = lb[idx] > la[idx]
        x = np.where(swap[:, None], mb[idx], ma[idx])
        y = np.where(swap[:, None], ma[idx], mb[idx])
        neq = x != y
        p = neq.argmax(axis=1)  # first mismatch — exists: lengths differ
        okk = np.zeros(idx.size, dtype=bool)
        for pv in np.unique(p):
            m = p == pv
            okk[m] = (x[m][:, pv + 1:] == y[m][:, pv:w - 1]).all(axis=1)
        ok[idx] = okk
    return ok


def edit1_pairs(ds, col: str, max_bucket: int | None = 4096):
    """All unordered distinct-string pairs (a < b) at edit distance ≤ 1.

    Returns a Dataset with string columns ``a``, ``b``. Exchange volume:
    O(distinct strings × (len+1)) 16-byte (hash, string) rows — never the
    row count, never all-pairs. Oversized variant buckets are capped via
    the shared chunked expansion (logged, deterministic)."""
    dschema = pa.schema([("s", pa.string())])
    oschema = pa.schema([("a", pa.string()), ("b", pa.string())])

    def batch_distinct(t: pa.Table) -> pa.Table:
        s = np.asarray(t[col].to_numpy(zero_copy_only=False), dtype=object)
        u = np.unique(s.astype("U"))
        return pa.table({"s": pa.array(u.astype(object), type=pa.string())})

    def dedupe(t: pa.Table) -> pa.Table:
        u = np.unique(t["s"].to_numpy().astype("U"))
        return pa.table({"s": pa.array(u.astype(object), type=pa.string())})

    distinct = runtime.by_key(
        ds.map_batches(batch_distinct, batch_format="pyarrow",
                       zero_copy_batch=True), "s", dedupe, dschema)

    def variants(t: pa.Table) -> pa.Table:
        s = np.asarray(t["s"].to_numpy(zero_copy_only=False), dtype=object)
        if s.size == 0:
            return pa.table({"vh": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.string())})
        m, lens, _w = _byte_matrix(s.astype("U"))
        vh_l, idx_l = [], []
        for L in np.unique(lens):
            idx = np.flatnonzero(lens == L)
            ml = m[idx][:, :L]
            vh_l.append(_hash_rows(ml))
            idx_l.append(idx)
            for j in range(int(L)):
                vh_l.append(_hash_rows(np.delete(ml, j, axis=1)))
                idx_l.append(idx)
        vh = np.concatenate(vh_l)
        ridx = np.concatenate(idx_l)
        return pa.table({
            "vh": vh.view(np.int64),
            "s": pa.array(s[ridx], type=pa.string()),
        })

    def cand(t: pa.Table) -> pa.Table:
        vh = t["vh"].to_numpy()
        s = t["s"].to_numpy().astype("U")
        order = np.lexsort((s, vh))
        vh, s = vh[order], s[order]
        starts = buckets.segment_starts(vh)
        sizes = np.diff(np.r_[starts, vh.size])
        ia, ib = pairs_ops.grouped_pair_indices(
            sizes, max_bucket, "edit1-variants", log_prefix="georay.fuzzy")
        a, b = s[ia], s[ib]
        keep = a != b
        a, b = a[keep], b[keep]
        sw = a > b
        a, b = np.where(sw, b, a), np.where(sw, a, b)
        if a.size:
            rec = np.empty(a.size, dtype=[("a", a.dtype), ("b", b.dtype)])
            rec["a"], rec["b"] = a, b
            rec = np.unique(rec)
            ok = verify_edit1(rec["a"], rec["b"])
            rec = rec[ok]
            a, b = rec["a"].astype(object), rec["b"].astype(object)
        else:
            a = b = np.empty(0, dtype=object)
        return pa.table({"a": pa.array(a, type=pa.string()),
                         "b": pa.array(b, type=pa.string())})

    cands = runtime.by_key(
        distinct.map_batches(variants, batch_format="pyarrow",
                             zero_copy_batch=True), "vh", cand, oschema)

    def final(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy().astype("U")
        b = t["b"].to_numpy().astype("U")
        rec = np.empty(a.size, dtype=[("a", a.dtype), ("b", b.dtype)])
        rec["a"], rec["b"] = a, b
        rec = np.unique(rec)
        return pa.table({"a": pa.array(rec["a"].astype(object), pa.string()),
                         "b": pa.array(rec["b"].astype(object), pa.string())})

    return runtime.by_key(cands, ["a", "b"], final, oschema)

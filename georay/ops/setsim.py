"""EXACT set-similarity self-join via prefix filtering (the AllPairs /
PPJoin family — Bayardo, Ma & Srikant, WWW'07; Xiao et al., WWW'08).

Finds every pair of documents whose word-token-set Jaccard is ≥ num/den —
exactly, unlike the MinHash pipeline (ops.minhash) which is probabilistic in
its CANDIDATE stage. The trick that makes exactness affordable: order all
tokens by ascending global document frequency (rarest first); a doc with n
tokens only indexes its first ``p = n − ceil(τ·n) + 1`` tokens (its
"prefix"). For any pair with J ≥ τ the smallest common token t satisfies
``pos(t) ≤ |X| − overlap + 1 ≤ p_X`` in BOTH docs (overlap ≥ ceil(τ·|X|)
from J ≥ τ and |Y| ≥ overlap), so every qualifying pair meets in at least
one prefix-token bucket — no recall loss, and common tokens (stopwords) are
almost never indexed, which is what kills the candidate explosion.

Threshold is an integer fraction ``num/den`` end to end: prefix length uses
integer ceil, the verify keeps ``inter·den ≥ num·union`` — no float ever
decides membership, so the SQL twin (a plain token self-join) matches
bit-for-bit. Tokens are 64-bit fingerprints (fingerprint64 → splitmix64);
grouping by the hash ≡ grouping by the token string up to 2⁻⁶⁴ collisions
(the fingerprint_dedup disclaimer; the oracle joins on the string).

Scale shape — only ids + 64-bit hashes shuffle; text is tokenized ONCE:
1. One pass over the text packs each doc's distinct sorted token hashes
   into a binary blob (one row per doc, materialized — every later stage
   derives from it, never from the text).
2. Token rows (hash, doc, set size) unpack batch-locally; document
   frequency is a two-phase count. The df table is broadcast (two sorted
   arrays, ``runtime.broadcast``) while it fits ``broadcast_vocab_max`` — the common,
   Zipf-bounded case — and falls back to a hash join above that, which is
   the 100 TB path for unbounded vocabularies.
3. Per-doc prefix selection runs in O(num_partitions) ``runtime.by_key``
   calls on the doc (one vectorized sort + cumcount per bucket, not one
   call per doc).
4. Prefix buckets emit candidate pairs (anti-explosion cap from ops.pairs,
   logged), pairs dedupe via the pair-hash bucket idiom
   (ops.pairs.distinct_pairs — NOT a sort-aggregate, which grinds on the
   skewed blocks capped hot tokens produce), and the exact verify is a
   dual plan: packed sets broadcast once while the doc count is at most
   ``broadcast_docs_max`` (batch-local searchsorted lookup), else
   hash-joined back — the same big-big shape as
   ops.minhash.jaccard_verify_shuffle and the 100 TB path.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

# module level, NOT inside worker-executed functions (CLAUDE.md invariant)
from georay.ops.minhash import PAIR_SCHEMA, _packed_view
from georay.ops.pairs import distinct_pairs, grouped_pair_indices
from georay.ops.sketch import splitmix64
from georay.ops.text import fingerprint64
from georay.ops.tiles import count_by
from georay.runtime import broadcast, by_key, join, table_from_pandas

_WORD_RE = re.compile(r"[\w']+", re.UNICODE)


def token_sets(ds, id_col: str = "doc_id", text_col: str = "text"):
    """One row per doc: packed sorted distinct token hashes + set size.

    Tokenizer: ``[\\w']+`` lowercased — identical to the LangId / simhash /
    tf-idf twins. Docs with zero tokens keep a row (n=0, empty blob); they
    can never pair (empty ∩ anything = 0 < τ·union)."""
    schema = pa.schema(
        [("sid", pa.int64()), ("sh", pa.binary()), ("n_tok", pa.int64())]
    )

    def pack(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df[text_col].str.findall(_WORD_RE).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        pairs = pd.DataFrame({"r": row, "w": toks.to_numpy()}).drop_duplicates()
        codes, uniq = pd.factorize(pairs["w"].to_numpy())
        th = (
            splitmix64(fingerprint64(np.asarray(uniq, dtype=object)))[codes]
            if uniq.size else np.empty(0, dtype=np.uint64)
        )
        r = pairs["r"].to_numpy()
        # r is non-decreasing (explode + drop_duplicates keep row order), so
        # th is already laid out doc-major: sort each contiguous run in
        # place (quicksort — this VM's stable/radix sorts are pathological)
        # and slice blobs from one tobytes(). O(T log s) per batch, not the
        # O(docs × tokens) per-doc mask scan (tools/microbench_setsim_pack:
        # 29x on a 1k-doc batch, bit-identical blobs).
        sizes = np.bincount(r, minlength=len(df)).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(sizes)))
        th_sorted = th.copy()
        for i in range(len(df)):
            th_sorted[offs[i]:offs[i + 1]].sort(kind="quicksort")
        buf = th_sorted.tobytes()
        blobs = [buf[8 * offs[i]: 8 * offs[i + 1]] for i in range(len(df))]
        return table_from_pandas(
            pd.DataFrame(
                {
                    "sid": df[id_col].to_numpy().astype(np.int64),
                    "sh": blobs,
                    "n_tok": np.asarray(sizes, dtype=np.int64),
                }
            ),
            schema=schema,
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        pack, batch_format="pandas"
    )


def _prefix_len(n: np.ndarray, num: int, den: int) -> np.ndarray:
    """p = n − ceil(num·n/den) + 1 (0 for empty sets) — integer exact."""
    ceil_tn = (num * n + den - 1) // den
    return np.where(n > 0, n - ceil_tn + 1, 0)


def _broadcast_sets(sets):
    """Collect the materialized (sid, sh, n_tok) table and broadcast it
    as (sorted ids, row of each sorted id, flat token values, per-row
    offsets, per-row counts) for batch-local pair verification — the
    small-side fast path of the verify dual plan (two chained Acero joins
    cost 42.6 + 17.3 s remote wall at sf0.1 for a 1.3M-pair × 50k-doc
    verify; the broadcast map is one lookup). Returns the getter."""
    tbl = pa.concat_tables(list(sets.iter_batches(batch_format="pyarrow")))
    vals, counts = _packed_view(tbl["sh"])
    sid = tbl["sid"].to_numpy(zero_copy_only=False).astype(np.int64)
    offs = np.zeros(sid.size + 1, np.int64)
    np.cumsum(counts, out=offs[1:])
    order = np.argsort(sid, kind="quicksort")
    return broadcast((sid[order], order.astype(np.int64), vals,
                      offs, counts.astype(np.int64)))


def _intersections(sets_here, ia: np.ndarray, ib: np.ndarray):
    """``(|A|, |B|, |A ∩ B|)`` per pair of doc ids, read off the
    broadcast packed sets of :func:`_broadcast_sets`."""
    sid_sorted, row_of_rank, vals, offs, counts = sets_here()
    ra = row_of_rank[np.searchsorted(sid_sorted, ia)]
    rb = row_of_rank[np.searchsorted(sid_sorted, ib)]
    inter = np.empty(ia.size, np.int64)
    for k in range(ia.size):
        sa = vals[offs[ra[k]]: offs[ra[k]] + counts[ra[k]]]
        sb = vals[offs[rb[k]]: offs[rb[k]] + counts[rb[k]]]
        inter[k] = np.intersect1d(sa, sb, assume_unique=True).size
    return counts[ra], counts[rb], inter


def setsim_join(ds, num: int, den: int, id_col: str = "doc_id",
                text_col: str = "text", num_partitions: int | None = None,
                max_bucket: int | None = 4096,
                broadcast_vocab_max: int = 2_000_000,
                broadcast_docs_max: int = 1_000_000):
    """All pairs with token-set Jaccard ≥ num/den (0 < num ≤ den).

    Returns ``(id_a, id_b, n_inter, n_union, jaccard)`` with id_a < id_b;
    ``jaccard`` is the single float division inter/union (both sides of the
    oracle compute it identically, so it is bit-stable).

    The token document-frequency table is BROADCAST (two sorted arrays
    + batch-local searchsorted) when its row count is at most
    ``broadcast_vocab_max`` — natural-language vocabularies are
    Zipf-bounded, so this is the common case and saves a whole shuffle
    join; bigger vocabularies fall back to ``runtime.join``."""
    if not (0 < num <= den):
        raise ValueError("threshold must satisfy 0 < num/den <= 1")
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    sets = token_sets(ds, id_col, text_col).materialize()

    def unpack(t: pa.Table) -> pa.Table:
        vals, counts = _packed_view(t["sh"])
        sid = t["sid"].to_numpy(zero_copy_only=False)
        n = t["n_tok"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "th": pa.array(vals.view(np.int64)),
                "sid": pa.array(np.repeat(sid, counts)),
                "n_tok": pa.array(np.repeat(n, counts)),
            }
        )

    toks = sets.map_batches(unpack, batch_format="pyarrow")

    dfc = count_by(toks.select_columns(["th"]), "th", out_col="df").materialize()

    if dfc.count() <= broadcast_vocab_max:
        batches = list(dfc.iter_batches(batch_format="pyarrow"))
        dft = pa.concat_tables(batches)
        th_v = dft["th"].to_numpy(zero_copy_only=False).astype(np.int64)
        df_v = dft["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(th_v, kind="quicksort")
        df_table = broadcast((th_v[order], df_v[order]))

        def attach_df(t: pa.Table) -> pa.Table:
            th_keys, df_vals = df_table()
            th = t["th"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(th_keys, th)  # every token is in the table
            return t.append_column("df", pa.array(df_vals[pos]))

        joined = toks.map_batches(attach_df, batch_format="pyarrow")
    else:
        joined = join(toks, dfc, "inner", on=("th",),
                      num_partitions=num_partitions)

    prefix_schema = pa.schema(
        [("th", pa.int64()), ("sid", pa.int64()), ("n_tok", pa.int64())]
    )

    def prefix_bucket(t: pa.Table) -> pd.DataFrame:
        # rarest-first total order: (df, th) — th breaks frequency ties
        g = t.to_pandas().sort_values(
            ["sid", "df", "th"], kind="quicksort").reset_index(drop=True)
        pos = g.groupby("sid").cumcount().to_numpy()
        n = g["n_tok"].to_numpy(np.int64)
        p = _prefix_len(n, num, den)
        keep = pos < p
        return pd.DataFrame({
            "th": g["th"].to_numpy(np.int64)[keep],
            "sid": g["sid"].to_numpy(np.int64)[keep],
            "n_tok": n[keep],
        })

    prefixes = by_key(joined, "sid", prefix_bucket, prefix_schema,
                      num_partitions=num_partitions)

    def pairs(g: pa.Table) -> pa.Table:
        # whole prefix-token groups co-located by by_key on th: one call
        # per bucket, not one Python call per distinct prefix token (Zipf
        # prefixes are mostly-rare tokens: millions of 1-2-row groups)
        ids = g["sid"].to_numpy()
        if ids.size < 2:
            return PAIR_SCHEMA.empty_table()
        th = g["th"].to_numpy()
        ntok = g["n_tok"].to_numpy()
        # one lexsort: each th a contiguous run, sids ascending inside —
        # positional pairs then give id_a < id_b and the same deterministic
        # capped chunking the old per-token bucket_pairs(sorted) emitted
        order = np.lexsort((ids, th))
        ids_s, th_s, ntok_s = ids[order], th[order], ntok[order]
        new = np.empty(ids_s.size, dtype=bool)
        new[0] = True
        new[1:] = th_s[1:] != th_s[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, ids_s.size))
        ia, ib = grouped_pair_indices(
            sizes, max_bucket, "(prefix tokens)", log_prefix="georay.setsim",
        )
        if ia.size == 0:
            return PAIR_SCHEMA.empty_table()
        # length filter (PPJoin): J ≥ τ forces min·den ≥ num·max — sizes
        # read positionally off the sorted run, no per-token id lookup
        sa, sb = ntok_s[ia], ntok_s[ib]
        ok = np.minimum(sa, sb) * den >= num * np.maximum(sa, sb)
        pa_ids, pb_ids = ids_s[ia[ok]], ids_s[ib[ok]]
        # batch-local dedup (full-int64-safe): a pair sharing several
        # prefix tokens in this bucket re-emits once per token otherwise
        if pa_ids.size:
            o = np.lexsort((pb_ids, pa_ids))
            pa_ids, pb_ids = pa_ids[o], pb_ids[o]
            first = np.empty(pa_ids.size, dtype=bool)
            first[0] = True
            first[1:] = (pa_ids[1:] != pa_ids[:-1]) | (pb_ids[1:] != pb_ids[:-1])
            pa_ids, pb_ids = pa_ids[first], pb_ids[first]
        return pa.table(
            {"id_a": pa.array(pa_ids), "id_b": pa.array(pb_ids)}
        )

    # distinct_pairs spreads by PAIR hash (a hot prefix token's capped
    # pair pile scattered one sort-aggregate reducer for 39 s before)
    cand = distinct_pairs(by_key(prefixes, "th", pairs, PAIR_SCHEMA,
                                 num_partitions=num_partitions))

    if sets.count() <= broadcast_docs_max:
        # verify dual plan, small-side fast path: the packed sets broadcast
        # ONCE (zero-copy plasma views per process) and each cand batch
        # resolves both blob slices by searchsorted — replaces two
        # chained Acero joins (42.6 + 17.3 s remote wall at sf0.1)
        sets_here = _broadcast_sets(sets)

        def jac_bcast(t: pa.Table) -> pa.Table:
            ia = t["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
            ib = t["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
            n_a, n_b, inter = _intersections(sets_here, ia, ib)
            union = n_a + n_b - inter
            keep = inter * den >= num * np.maximum(union, 1)
            keep &= union > 0
            return pa.table({
                "id_a": ia[keep], "id_b": ib[keep],
                "n_inter": inter[keep], "n_union": union[keep],
                "jaccard": inter[keep] / union[keep],
            })

        return cand.map_batches(jac_bcast, batch_format="pyarrow")

    def as_side(side: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {f"id_{side}": t["sid"], f"sh_{side}": t["sh"],
                 f"n_{side}": t["n_tok"]}
            )

        return fn

    sh_a = sets.map_batches(as_side("a"), batch_format="pyarrow")
    sh_b = sets.map_batches(as_side("b"), batch_format="pyarrow")
    verif = join(
        join(cand, sh_a, "inner", on=("id_a",),
             num_partitions=num_partitions),
        sh_b, "inner", on=("id_b",), num_partitions=num_partitions,
    )

    def jac(t: pa.Table) -> pa.Table:
        n = len(t)
        va, na = _packed_view(t["sh_a"])
        vb, nb = _packed_view(t["sh_b"])
        offa = np.zeros(n + 1, np.int64)
        np.cumsum(na, out=offa[1:])
        offb = np.zeros(n + 1, np.int64)
        np.cumsum(nb, out=offb[1:])
        inter = np.empty(n, dtype=np.int64)
        isect = np.intersect1d
        for k in range(n):
            sa = va[offa[k] : offa[k + 1]]
            sb = vb[offb[k] : offb[k + 1]]
            inter[k] = isect(sa, sb, assume_unique=True).size
        union = na + nb - inter
        keep = inter * den >= num * np.maximum(union, 1)
        keep &= union > 0
        w = pa.array(keep)
        return pa.table(
            {
                "id_a": t["id_a"].filter(w),
                "id_b": t["id_b"].filter(w),
                "n_inter": pa.array(inter[keep]),
                "n_union": pa.array(union[keep]),
                "jaccard": pa.array(inter[keep] / union[keep]),
            }
        )

    return verif.map_batches(jac, batch_format="pyarrow")


def containment_join(ds, num: int, den: int, min_tokens: int = 30,
                     id_col: str = "doc_id", text_col: str = "text",
                     num_partitions: int | None = None,
                     max_pairs_per_token: int | None = 1 << 22,
                     broadcast_vocab_max: int = 2_000_000,
                     broadcast_docs_max: int = 1_000_000):
    """ASYMMETRIC set-containment join: every ORDERED pair (A, B), A ≠ B,
    with ``|A ∩ B| ≥ (num/den)·|A|`` and ``|A| ≥ min_tokens`` — "document
    A is (almost) contained in document B", the directional near-dup /
    quotation / superset-document detector the symmetric Jaccard join
    (:func:`setsim_join`) cannot express (B may be arbitrarily large).

    Prefix logic (Xiao et al.'s containment variant): under ANY global
    token order, if none of A's first ``p_A = |A| − ceil(τ·|A|) + 1``
    tokens hit B then overlap ≤ ceil(τ·|A|) − 1 — so candidates =
    A-prefix tokens ⋈ B-FULL tokens, no recall loss. The order is still
    ascending document frequency (rarest first) because that is what
    keeps A-prefixes off the stopword buckets; the B side is unfiltered
    by construction, so per-token candidate volume is
    |A-prefixes| × df(token) — Zipf-small for rare prefix tokens, capped
    at ``max_pairs_per_token`` with a logged count when a pathological
    token exceeds it (never silently).

    Verify is exact: hash-join the deduped pairs back to the packed
    blobs, C-merge intersection, keep ``inter·den ≥ num·n_a``. Only ids
    and 64-bit hashes shuffle.

    Output: ``id_a, id_b, n_inter, n_a, containment`` (the one float
    division, identical on the SQL side).
    """
    if not (0 < num <= den):
        raise ValueError("threshold must satisfy 0 < num/den <= 1")
    import logging

    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    log = logging.getLogger("georay.setsim")
    sets = token_sets(ds, id_col, text_col).materialize()

    def unpack(t: pa.Table) -> pa.Table:
        vals, counts = _packed_view(t["sh"])
        sid = t["sid"].to_numpy(zero_copy_only=False)
        n = t["n_tok"].to_numpy(zero_copy_only=False)
        return pa.table({
            "th": pa.array(vals.view(np.int64)),
            "sid": pa.array(np.repeat(sid, counts)),
            "n_tok": pa.array(np.repeat(n, counts)),
        })

    toks = sets.map_batches(unpack, batch_format="pyarrow")

    dfc = count_by(toks.select_columns(["th"]), "th", out_col="df").materialize()

    if dfc.count() <= broadcast_vocab_max:
        dft = pa.concat_tables(list(dfc.iter_batches(batch_format="pyarrow")))
        th_v = dft["th"].to_numpy(zero_copy_only=False).astype(np.int64)
        df_v = dft["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(th_v, kind="quicksort")
        df_table = broadcast((th_v[order], df_v[order]))

        def attach_df(t: pa.Table) -> pa.Table:
            th_keys, df_vals = df_table()
            th = t["th"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(th_keys, th)
            return t.append_column("df", pa.array(df_vals[pos]))

        joined = toks.map_batches(attach_df, batch_format="pyarrow")
    else:
        joined = join(toks, dfc, "inner", on=("th",),
                      num_partitions=num_partitions)

    role_schema = pa.schema([("th", pa.int64()), ("sid", pa.int64()),
                             ("is_a", pa.int8())])

    def emit_roles(t: pa.Table) -> pd.DataFrame:
        # B-full rows for every token; A-prefix rows only for eligible
        # docs' first p tokens under the (df, th) rarest-first order
        g = t.to_pandas().sort_values(
            ["sid", "df", "th"], kind="quicksort").reset_index(drop=True)
        pos = g.groupby("sid").cumcount().to_numpy()
        n = g["n_tok"].to_numpy(np.int64)
        p = _prefix_len(n, num, den)
        a_keep = (pos < p) & (n >= min_tokens)
        th = g["th"].to_numpy(np.int64)
        sid = g["sid"].to_numpy(np.int64)
        return pd.DataFrame({
            "th": np.concatenate([th, th[a_keep]]),
            "sid": np.concatenate([sid, sid[a_keep]]),
            "is_a": np.concatenate([
                np.zeros(th.size, np.int8),
                np.ones(int(a_keep.sum()), np.int8),
            ]),
        })

    roles = by_key(joined, "sid", emit_roles, role_schema,
                   num_partitions=num_partitions)

    def bipartite_pairs(g: pa.Table) -> pa.Table:
        # layout: sort by (th, is_a, sid) → per token one B run then one
        # A run; expand A × B per token with pure offset arithmetic
        th = g["th"].to_numpy()
        sid = g["sid"].to_numpy()
        is_a = g["is_a"].to_numpy().astype(np.int64)
        order = np.lexsort((sid, is_a, th))
        th_s, sid_s, a_s = th[order], sid[order], is_a[order]
        new = np.empty(th_s.size, dtype=bool)
        new[0] = True
        new[1:] = th_s[1:] != th_s[:-1]
        starts = np.flatnonzero(new).astype(np.int64)
        sizes = np.diff(np.append(starts, th_s.size)).astype(np.int64)
        a_cum = np.concatenate(([0], np.cumsum(a_s)))
        a_cnt = a_cum[starts + sizes] - a_cum[starts]
        b_cnt = sizes - a_cnt
        m = a_cnt * b_cnt
        if max_pairs_per_token is not None:
            over = m > max_pairs_per_token
            if over.any():
                log.warning(
                    "containment_join: %d token groups capped at %d pairs",
                    int(over.sum()), max_pairs_per_token,
                )
                # deterministic cap: keep the first floor(cap/b) A rows
                a_cnt = np.where(
                    over, np.maximum(max_pairs_per_token // np.maximum(
                        b_cnt, 1), 1), a_cnt)
                m = a_cnt * b_cnt
        tot = int(m.sum())
        if tot == 0:
            return PAIR_SCHEMA.empty_table()
        gidx = np.repeat(np.arange(m.size), m)
        j = np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(m) - m, m)
        b_rep = np.repeat(b_cnt, m)
        a_row = np.repeat(starts + b_cnt, m) + j // np.maximum(b_rep, 1)
        b_row = np.repeat(starts, m) + j % np.maximum(b_rep, 1)
        ia, ib = sid_s[a_row], sid_s[b_row]
        keep = ia != ib
        ia, ib = ia[keep], ib[keep]
        # batch-local dedup: a pair meeting in several tokens of this
        # bucket would otherwise re-emit once per token and inflate the
        # global dedup groupby (full-int64-safe lexsort run dedup)
        if ia.size:
            o = np.lexsort((ib, ia))
            ia, ib = ia[o], ib[o]
            first = np.empty(ia.size, dtype=bool)
            first[0] = True
            first[1:] = (ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])
            ia, ib = ia[first], ib[first]
        return pa.table({"id_a": pa.array(ia), "id_b": pa.array(ib)})

    # pair-hash spread dedup, not sort-aggregate (skew: hot tokens)
    cand = distinct_pairs(by_key(roles, "th", bipartite_pairs, PAIR_SCHEMA,
                                 num_partitions=num_partitions))

    if sets.count() <= broadcast_docs_max:
        # verify dual plan, small-side fast path (see setsim_join): packed
        # sets broadcast once, per-batch searchsorted lookup, no joins
        sets_here = _broadcast_sets(sets)

        def contain_bcast(t: pa.Table) -> pa.Table:
            ia = t["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
            ib = t["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
            n_a, _, inter = _intersections(sets_here, ia, ib)
            keep = inter * den >= num * n_a
            return pa.table({
                "id_a": ia[keep], "id_b": ib[keep],
                "n_inter": inter[keep], "n_a": n_a[keep],
                "containment": inter[keep] / n_a[keep],
            })

        return cand.map_batches(contain_bcast, batch_format="pyarrow")

    def as_side(side: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {f"id_{side}": t["sid"], f"sh_{side}": t["sh"],
                 f"n_{side}": t["n_tok"]}
            )

        return fn

    verif = join(
        join(cand, sets.map_batches(as_side("a"), batch_format="pyarrow"),
             "inner", on=("id_a",), num_partitions=num_partitions),
        sets.map_batches(as_side("b"), batch_format="pyarrow"), "inner",
        on=("id_b",), num_partitions=num_partitions,
    )

    def contain(t: pa.Table) -> pa.Table:
        n = len(t)
        va, na = _packed_view(t["sh_a"])
        vb, nb = _packed_view(t["sh_b"])
        offa = np.zeros(n + 1, np.int64)
        np.cumsum(na, out=offa[1:])
        offb = np.zeros(n + 1, np.int64)
        np.cumsum(nb, out=offb[1:])
        inter = np.empty(n, dtype=np.int64)
        isect = np.intersect1d
        for k in range(n):
            sa = va[offa[k]: offa[k + 1]]
            sb = vb[offb[k]: offb[k + 1]]
            inter[k] = isect(sa, sb, assume_unique=True).size
        n_a = np.asarray(na, dtype=np.int64)
        keep = inter * den >= num * n_a
        w = pa.array(keep)
        return pa.table({
            "id_a": t["id_a"].filter(w),
            "id_b": t["id_b"].filter(w),
            "n_inter": pa.array(inter[keep]),
            "n_a": pa.array(n_a[keep]),
            "containment": pa.array(inter[keep] / n_a[keep]),
        })

    return verif.map_batches(contain, batch_format="pyarrow")

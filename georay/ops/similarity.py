"""Similarity search over embedding columns (list<float>).

- :func:`brute_topk` — exact cosine top-k: per-batch numpy matmul against a
  broadcast (normalized) query matrix + local top-k, then
  ``rank.grouped_topk`` merges per hash bucket. The baseline; exact.
- :func:`ivf_topk` — IVF scale path: k-means centroids (trained once on a
  driver-side sample), every vector assigned to its nearest centroid inside
  ``map_batches``; queries probe only the ``n_probe`` nearest buckets.
  Approximate (tested recall ≥ 0.9 vs brute).
- :func:`cosine_near_dup_pairs` — embedding near-dup: random-hyperplane
  (SimHash) bucketing → in-bucket pairwise cosine ≥ τ.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# module level (worker-executed code must not import georay at runtime —
# CLAUDE.md invariant; by-value cloudpickle only covers captured objects)
from georay.ops.pairs import distinct_pairs, grouped_pair_indices
from georay.ops.rank import grouped_topk
from georay.runtime import (broadcast, by_key, group_agg, join, per_key,
                            per_process)


def emb_matrix(col) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(arr), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64)
    return m / np.clip(np.linalg.norm(m, axis=1, keepdims=True), 1e-30, None)


def brute_topk(ds, query_ids: np.ndarray, query_mat: np.ndarray, k: int = 5,
               id_col: str = "vec_id", emb_col: str = "embedding",
               query_labels: np.ndarray | None = None,
               label_col: str = "label"):
    """Exact cosine top-k of every query against the full dataset.

    With ``query_labels`` given, candidates sharing the query's label are
    masked out per query — hard-NEGATIVE mining for contrastive training
    (the nearest vectors that are NOT of the query's own class). The mask
    is a batch-local boolean outer compare; no extra pass or shuffle.
    """
    queries = broadcast((
        np.asarray(query_ids), _normalize(np.asarray(query_mat)),
        None if query_labels is None else np.asarray(query_labels)))

    def local_fn(t: pa.Table) -> pa.Table:
        q_ids, q_mat, q_labels = queries()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        # candidates pre-sorted by id so the STABLE argsort below breaks
        # similarity ties by ascending id — matching the final merge and
        # the SQL oracle's ORDER BY sim DESC, id
        id_order = np.argsort(ids, kind="stable")
        ids = ids[id_order]
        mat = _normalize(emb_matrix(t[emb_col]))[id_order]
        sims = q_mat @ mat.T
        sims[q_ids[:, None] == ids[None, :]] = -np.inf
        if q_labels is not None:
            lab = t[label_col].to_numpy(zero_copy_only=False)[id_order]
            sims[q_labels[:, None] == lab[None, :]] = -np.inf
        kk = min(k, ids.size)
        part = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
        qidx = np.repeat(np.arange(q_ids.size), kk)
        nidx = part.reshape(-1)
        out = pa.table({"query_id": q_ids[qidx], "neighbor_id": ids[nidx],
                        "sim": sims[qidx, nidx]})
        return out.filter(pc.is_finite(out["sim"]))

    local = ds.map_batches(local_fn, batch_format="pyarrow")

    return grouped_topk(local, ["query_id"], ["sim", "neighbor_id"],
                        [False, True], k)


def _probing_queries(probe: np.ndarray, n_buckets: int) -> list:
    """IVF bucket -> the queries whose ``probe`` row lists it."""
    return [np.flatnonzero((probe == b).any(axis=1)) for b in range(n_buckets)]


def _pq_codes(codes: np.ndarray, cb_sub: np.ndarray) -> np.ndarray:
    """Flat PQ-ADC lookup columns ``(rows, subspaces)`` of SQ8 ``codes``
    shaped ``(rows, subspaces, d_sub)``: per subspace, the integer-L2
    nearest codeword (argmin ties -> lowest id), offset by the subspace's
    start in the flattened per-query table."""
    n_cw, m_subspaces = cb_sub.shape[0], cb_sub.shape[1]
    assign = np.empty((codes.shape[0], m_subspaces), np.int64)
    for s in range(m_subspaces):
        diff = codes[:, s, None, :] - cb_sub[None, :, s, :]
        assign[:, s] = np.argmin(np.einsum("rcd,rcd->rc", diff, diff), axis=1)
    return assign + n_cw * np.arange(m_subspaces, dtype=np.int64)


def train_centroids(sample: np.ndarray, n_centroids: int, iters: int = 10,
                    seed: int = 42) -> np.ndarray:
    """Plain k-means on a normalized sample (driver-side, small)."""
    rng = np.random.RandomState(seed)
    m = _normalize(sample)
    c = m[rng.choice(m.shape[0], size=min(n_centroids, m.shape[0]), replace=False)]
    for _ in range(iters):
        assign = (m @ c.T).argmax(axis=1)
        for j in range(c.shape[0]):
            members = m[assign == j]
            if members.size:
                c[j] = members.mean(axis=0)
        c = _normalize(c)
    return c


def ivf_topk(ds, query_ids: np.ndarray, query_mat: np.ndarray, k: int = 5,
             n_centroids: int = 16, n_probe: int = 4,
             id_col: str = "vec_id", emb_col: str = "embedding",
             sample_mat: np.ndarray | None = None):
    """IVF-bucketed approximate top-k.

    Every batch assigns its vectors to centroids; vectors in buckets no
    query probes are dropped before any scoring — at scale this is the
    pruning that turns O(N·Q) into O(N·Q·n_probe/n_centroids)."""
    if sample_mat is None:
        sample_mat = np.asarray(query_mat)
    cents = train_centroids(np.asarray(sample_mat), n_centroids)
    qn = _normalize(np.asarray(query_mat))
    # buckets each query probes
    probe = np.argsort(-(qn @ cents.T), axis=1)[:, :n_probe]
    queries = broadcast((np.asarray(query_ids), qn, cents,
                         _probing_queries(probe, cents.shape[0])))

    def local_fn(t: pa.Table) -> pa.Table:
        q_ids, q_mat, cents, bucket_queries = queries()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        id_order = np.argsort(ids, kind="stable")  # tie-break by id (see brute_topk)
        ids = ids[id_order]
        mat = _normalize(emb_matrix(t[emb_col]))[id_order]
        assign = (mat @ cents.T).argmax(axis=1)
        out_q, out_n, out_s = [], [], []
        for b in np.unique(assign):
            qs = bucket_queries[int(b)]
            if qs.size == 0:
                continue
            rows = np.flatnonzero(assign == b)
            sims = q_mat[qs] @ mat[rows].T
            sims[q_ids[qs][:, None] == ids[rows][None, :]] = -np.inf
            kk = min(k, rows.size)
            part = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
            qidx = np.repeat(qs, kk)
            nidx = part.reshape(-1)
            out_q.append(q_ids[qidx])
            out_n.append(ids[rows][nidx])
            out_s.append(sims[np.repeat(np.arange(qs.size), kk), nidx])
        if not out_q:
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "neighbor_id": pa.array([], pa.int64()),
                 "sim": pa.array([], pa.float64())}
            )
        out = pa.table({"query_id": np.concatenate(out_q),
                        "neighbor_id": np.concatenate(out_n),
                        "sim": np.concatenate(out_s)})
        return out.filter(pc.is_finite(out["sim"]))

    local = ds.map_batches(local_fn, batch_format="pyarrow")

    return grouped_topk(local, ["query_id"], ["sim", "neighbor_id"],
                        [False, True], k)


def ivf_sq8_topk(ds, query_mask_mod: int = 10, k: int = 5,
                 n_centroids: int = 16, n_probe: int = 4,
                 id_col: str = "vec_id", emb_col: str = "embedding",
                 sample_mat: np.ndarray | None = None):
    """IVF pruning COMPOSED with SQ8 integer scoring — the 100 TB ANN
    pipeline: pruning turns O(N·Q) into O(N·Q·n_probe/n_centroids) and the
    scored payload is 4×-compressed uint8 codes (the FAISS ``IVF,SQ8``
    shape: vectors are ASSIGNED to inverted lists with the float embedding
    they arrive with — assignment is a one-time index-build cost — while
    every SCORE is an int64 dot product of codes, exact under any
    execution order).

    At ``n_probe == n_centroids`` every inverted list is scored, so the
    output is mathematically identical to :func:`sq8_topk` (hard-checked
    against the integer SQL oracle); pruned mode is unit-tested for
    recall ≥ 0.9 on clustered data, like :func:`ivf_topk`.

    Queries are rows with ``vec_id % query_mask_mod == 0``, quantized with
    the same distributed :func:`dim_ranges` codebook and broadcast once;
    centroids train driver-side on ``sample_mat`` (or the query matrix).
    Output: ``query_id, neighbor_id, score, rank``."""
    # --- SQ8 codebook: distributed per-dim (min, max), tiny result
    mn, mx = dim_bounds(ds, emb_col)

    # --- queries: one streamed filter pass, bounded by the mask
    def pick_queries(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        keep = pa.array(ids % query_mask_mod == 0)
        return pa.table(
            {id_col: t[id_col].filter(keep), emb_col: t[emb_col].filter(keep)}
        )

    q_t = pa.concat_tables(
        list(ds.map_batches(pick_queries, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ))
    )
    q_ids = q_t[id_col].to_numpy(zero_copy_only=False)
    q_mat = emb_matrix(q_t[emb_col])
    q_codes = sq8_quantize(q_mat, mn, mx)

    # --- IVF geometry: float-space centroids (cosine), same as ivf_topk
    if sample_mat is None:
        sample_mat = q_mat
    cents = train_centroids(np.asarray(sample_mat), n_centroids)
    probe = np.argsort(-(_normalize(q_mat) @ cents.T), axis=1)[:, :n_probe]
    queries = broadcast((q_ids, q_codes, mn, mx, cents,
                         _probing_queries(probe, cents.shape[0])))

    def local_fn(t: pa.Table) -> pa.Table:
        q_ids, q_codes, mn, mx, cents, bucket_queries = queries()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        id_order = np.argsort(ids, kind="stable")  # tie-break by id
        ids = ids[id_order]
        fmat = emb_matrix(t[emb_col])[id_order]
        assign = (_normalize(fmat) @ cents.T).argmax(axis=1)
        codes = sq8_quantize(fmat, mn, mx)
        out_q, out_n, out_s = [], [], []
        for b in np.unique(assign):
            qs = bucket_queries[int(b)]
            if qs.size == 0:
                continue
            rows = np.flatnonzero(assign == b)
            scores = q_codes[qs] @ codes[rows].T  # int64-exact
            scores[q_ids[qs][:, None] == ids[rows][None, :]] = -1
            kk = min(k, rows.size)
            part = np.argsort(-scores, axis=1, kind="stable")[:, :kk]
            qidx = np.repeat(np.arange(qs.size), kk)
            nidx = part.reshape(-1)
            out_q.append(q_ids[qs][qidx])
            out_n.append(ids[rows][nidx])
            out_s.append(scores[qidx, nidx])
        if not out_q:
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "neighbor_id": pa.array([], pa.int64()),
                 "score": pa.array([], pa.int64())}
            )
        out = pa.table({"query_id": np.concatenate(out_q),
                        "neighbor_id": np.concatenate(out_n),
                        "score": np.concatenate(out_s)})
        return out.filter(pc.greater_equal(out["score"], 0))

    local = ds.map_batches(local_fn, batch_format="pyarrow")

    return grouped_topk(local, ["query_id"], ["score", "neighbor_id"],
                        [False, True], k)


def cosine_pairs_brute(ds, all_table: pa.Table, threshold: float,
                       id_col: str = "vec_id", emb_col: str = "embedding"):
    """EXACT cosine near-dup pairs: the full (normalized) matrix is broadcast
    once; each batch scores its rows against everything and keeps pairs
    ``cos >= threshold`` with ``batch_id < other_id`` (each unordered pair
    emitted exactly once). O(N²/batches) per task — the exact baseline the
    LSH path (:func:`cosine_near_dup_pairs`) approximates at scale."""
    everything = broadcast((all_table[id_col].to_numpy(),
                            _normalize(emb_matrix(all_table[emb_col]))))

    def pairs_fn(t: pa.Table) -> pa.Table:
        all_ids, all_mat = everything()
        bids = t[id_col].to_numpy(zero_copy_only=False)
        bmat = _normalize(emb_matrix(t[emb_col]))
        sims = bmat @ all_mat.T
        keep = (sims >= threshold) & (bids[:, None] < all_ids[None, :])
        bi, ai = np.nonzero(keep)
        return pa.table({"id_a": bids[bi], "id_b": all_ids[ai],
                         "cos": sims[bi, ai]})

    return ds.map_batches(pairs_fn, batch_format="pyarrow")


def lsh_planes(dim: int, n_planes: int, n_tables: int, seed: int) -> list:
    """Deterministic per-table hyperplane matrices (table t uses seed+t, so
    a single-table call reproduces the historical seed-42 planes)."""
    return [
        np.random.RandomState(seed + t).randn(dim, n_planes)
        for t in range(n_tables)
    ]


def cosine_near_dup_pairs(ds, threshold: float = 0.9, n_planes: int = 12,
                          n_tables: int = 1, id_col: str = "vec_id",
                          emb_col: str = "embedding", seed: int = 42,
                          max_bucket: int | None = 4096):
    """Embedding near-dup via random-hyperplane LSH: vectors sharing a
    sign-pattern bucket (in ANY of ``n_tables`` independent tables — OR
    amplification) get exact pairwise cosine; pairs ≥ τ survive, deduped
    across tables. Approximate but DETERMINISTIC given (seed, planes):
    a pair is found iff it collides in some table. Recall for a pair at
    angle θ is 1 − (1 − (1 − θ/π)^n_planes)^n_tables — tune fewer planes /
    more tables upward for lower-similarity thresholds.

    ``max_bucket`` caps degenerate-bucket pair explosion (e.g. a pile of
    zero/identical embeddings collapsing into one sign pattern would put an
    O(b²) group on a single reducer) with the shared logged-chunking helper
    every LSH family here uses; ``None`` restores exact all-pairs."""
    def add_bucket(t: pa.Table) -> pa.Table:
        mat = _normalize(emb_matrix(t[emb_col]))
        # hyperplanes are pure f(dim, n_planes, n_tables, seed): build once
        # per worker process, not once per batch (ADVICE r2 #2)
        planes = per_process(
            f"lsh_planes-{mat.shape[1]}-{n_planes}-{n_tables}-{seed}",
            lambda: lsh_planes(mat.shape[1], n_planes, n_tables, seed),
        )
        ids_out, tab_out, bucket_out, emb_idx = [], [], [], []
        ids = t[id_col].to_numpy(zero_copy_only=False)
        for tno, pl in enumerate(planes):
            bits = (mat @ pl) > 0
            bucket = (bits * (1 << np.arange(n_planes))).sum(axis=1)
            ids_out.append(ids)
            tab_out.append(np.full(ids.size, tno, dtype=np.int64))
            bucket_out.append(bucket.astype(np.int64))
            emb_idx.append(np.arange(ids.size))
        rep = np.concatenate(emb_idx)
        emb = t[emb_col].combine_chunks() if isinstance(
            t[emb_col], pa.ChunkedArray
        ) else t[emb_col]
        return pa.table(
            {
                id_col: pa.array(np.concatenate(ids_out)),
                "tab": pa.array(np.concatenate(tab_out)),
                "bucket": pa.array(np.concatenate(bucket_out)),
                "emb": emb.take(pa.array(rep)),
            }
        )

    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                             ("cos", pa.float64())])

    def pairs(g: pa.Table) -> pa.Table:
        # One call per by_key bucket of (tab, bucket) LSH cells — not one
        # Python call per cell (cells are near-singletons): a single
        # lexsort puts every cell in a contiguous run, grouped_pair_indices
        # expands all runs' pairs in one vectorized pass, and the cosine is
        # one einsum over every pair of every cell in the bucket.
        ids = g[id_col].to_numpy()
        if ids.size < 2:
            return pair_schema.empty_table()
        tab = g["tab"].to_numpy()
        bucket = g["bucket"].to_numpy()
        # ids ascending inside each (tab, bucket) run: a < b and the capped
        # chunking stays deterministic (same order bucket_pairs used)
        order = np.lexsort((ids, bucket, tab))
        ids_s = ids[order]
        tab_s, bucket_s = tab[order], bucket[order]
        mat = _normalize(emb_matrix(g["emb"])[order])
        new = np.empty(ids_s.size, dtype=bool)
        new[0] = True
        new[1:] = (tab_s[1:] != tab_s[:-1]) | (bucket_s[1:] != bucket_s[:-1])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, ids_s.size))
        ia, ib = grouped_pair_indices(
            sizes, max_bucket, "(lsh cells)", log_prefix="georay.similarity",
        )
        if ia.size == 0:
            return pair_schema.empty_table()
        # per-pair dot products: O(pairs·dim), never an n×n sims matrix
        cos = np.einsum("ij,ij->i", mat[ia], mat[ib])
        keep = cos >= threshold
        return pa.table(
            {"id_a": pa.array(ids_s[ia[keep]].astype(np.int64)),
             "id_b": pa.array(ids_s[ib[keep]].astype(np.int64)),
             "cos": pa.array(cos[keep])}
        )

    # the same pair can collide in several tables: per-pair-hash bucket
    # dedup keeping the max cos (bit-stable: every emission of a pair
    # computes the identical einsum value) — ops.pairs.distinct_pairs,
    # not groupby(pair).aggregate (sort-aggregate skew pathology)
    return distinct_pairs(
        by_key(ds.map_batches(add_bucket, batch_format="pyarrow"),
               ["tab", "bucket"], pairs, pair_schema),
        max_col="cos",
    )


def fixed_matrix(col) -> np.ndarray:
    """(n, d) view of a FixedSizeList column — zero-copy values buffer."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    d = arr.type.list_size
    return arr.values.to_numpy(zero_copy_only=False).reshape(len(arr), d)


def kmeans_lloyd(ds, k: int = 8, iters: int = 3, id_col: str = "vec_id",
                 emb_col: str = "embedding", scale: int = 1 << 20,
                 with_centroids: bool = False):
    """Distributed Lloyd's k-means over an embedding column, DETERMINISTIC
    regardless of batch order / partitioning:

    - embeddings are int-scaled ONCE (``floor(x · 2²⁰)`` — floor, not
      round: identical semantics in numpy and SQL) and materialized (the
      int table is consumed ``iters + 1`` times);
    - per-iteration partials are INTEGER (cluster, dim) → (Σxᵢ, count)
      rows — k·d rows per batch regardless of batch size, summed exactly by
      an order-independent ``group_agg``, so the centroid ``s/c`` is the same
      float64 on every run;
    - assignment = argmin of squared-L2 in the scaled domain, ties broken
      by lowest cluster id (np.argmin ⟷ ``ORDER BY dist, cluster``).

    Only the distance SUM's float addition order differs from a SQL
    replica — argmin decisions are robust to last-ulp noise on non-
    degenerate data (same contract as the embed_neardup threshold compare).
    Init: the k smallest ``id_col`` rows, cluster j = rank of the id.
    Output: ``id_col, cluster`` for every row. Empty clusters keep their
    previous centroid on both sides.
    """
    def to_int(t: pa.Table) -> pa.Table:
        mat = emb_matrix(t[emb_col]).astype(np.float64)
        xi = np.floor(mat * float(scale)).astype(np.int64)
        n, d = xi.shape
        return pa.table(
            {
                id_col: t[id_col],
                "xi": pa.FixedSizeListArray.from_arrays(
                    pa.array(xi.reshape(-1)), d
                ),
            }
        )

    ints = ds.map_batches(
        to_int, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    dim = None
    for name, typ in zip(ints.schema().names, ints.schema().types):
        if name == "xi":
            dim = typ.list_size

    # ---- init: the k smallest ids, found distributed (each batch collapses
    # to its own k smallest rows, the driver merges O(batches·k) rows —
    # never the full id column)
    def local_min_k(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        keep = np.argsort(ids, kind="quicksort")[:k]
        return t.take(pa.array(np.sort(keep)))

    # plain to_pandas on the tiny per-batch partials (to_arrow_refs +
    # ray.get here intermittently trips a Ray core refcount CHECK crash —
    # reference_count.cc:581 — when the intermediate dataset is GC'd while
    # its refs are being inlined)
    cand = ints.map_batches(local_min_k, batch_format="pyarrow").to_pandas()
    order = np.argsort(cand[id_col].to_numpy(), kind="stable")[:k]
    cent = np.stack(cand["xi"].to_numpy()[order]).astype(np.float64)

    cluster_rep = np.repeat(np.arange(k, dtype=np.int64), dim)
    dim_tile = np.tile(np.arange(dim, dtype=np.int64), k)

    for _ in range(iters):
        def partial(t: pa.Table, centroids=broadcast(cent)) -> pa.Table:
            C = centroids()
            Xi = fixed_matrix(t["xi"])
            X = Xi.astype(np.float64)
            D = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
            a = D.argmin(1)
            counts = np.bincount(a, minlength=k).astype(np.int64)
            sums = np.zeros((k, C.shape[1]), np.int64)
            np.add.at(sums, a, Xi)
            return pa.table(
                {
                    "cluster": pa.array(cluster_rep),
                    "d": pa.array(dim_tile),
                    "s": pa.array(sums.reshape(-1)),
                    "c": pa.array(np.repeat(counts, C.shape[1])),
                }
            )

        agg = group_agg(
            ints.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True),
            ["cluster", "d"], {"s_sum": ("sum", "s"), "c_sum": ("sum", "c")},
        ).to_pandas()
        s_mat = np.zeros((k, dim))
        c_mat = np.zeros((k, dim))
        s_mat[agg["cluster"].to_numpy(), agg["d"].to_numpy()] = agg["s_sum"]
        c_mat[agg["cluster"].to_numpy(), agg["d"].to_numpy()] = agg["c_sum"]
        with np.errstate(invalid="ignore", divide="ignore"):
            cent = np.where(c_mat > 0, s_mat / c_mat, cent)

    def assign(t: pa.Table, centroids=broadcast(cent)) -> pa.Table:
        C = centroids()
        X = fixed_matrix(t["xi"]).astype(np.float64)
        D = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        return pa.table(
            {
                id_col: t[id_col],
                "cluster": pa.array(D.argmin(1).astype(np.int64)),
            }
        )

    out = ints.map_batches(assign, batch_format="pyarrow",
                           zero_copy_batch=True)
    if with_centroids:
        # final post-loop centroids in the SCALED domain (the matrix the
        # afinal assignment uses) — lets composed pipelines (semantic_dedup)
        # re-derive the identical assignment without a list-column join
        return out, cent
    return out


def semantic_dedup(ds, k: int = 8, iters: int = 3, threshold: float = 0.45,
                   id_col: str = "vec_id", emb_col: str = "embedding",
                   scale: int = 1 << 20):
    """SemDeDup-shaped semantic deduplication (Abbas et al. 2023, public):
    k-means clusters bound the O(n²) cosine comparison to within-cluster
    pairs; a row is a DUPLICATE iff some LOWER-id row in the SAME cluster
    has cosine ≥ ``threshold`` (deterministic keep-lowest rule, no greedy
    order dependence). Output: ``(id_col, cluster, keep)``, one row per
    input row, keep ∈ {0, 1}.

    Scale shape: the cluster assignment is re-derived per batch from the
    broadcast final centroids (k·d floats — no list-column join, which
    Acero rejects anyway); embeddings travel to their cluster's group as
    packed float32 blobs through ONE sort shuffle; the per-cluster kernel
    is a single normalized matmul. Per-cluster cost is O(c²·d) — the
    SemDeDup contract: pick k ≈ n/1000 so clusters stay matmul-sized
    (at 10⁹ rows and k = 10⁶ a cluster is ~10³×d — one GEMM). The
    assignment argmin, tie-break, and threshold compare reuse the exact
    expression shapes of :func:`kmeans_lloyd` / :func:`cosine_pairs_brute`,
    so the SQL twin (kmeans CTE chain + within-cluster EXISTS) is
    hash-exact."""
    _, cent = kmeans_lloyd(
        ds, k=k, iters=iters, id_col=id_col, emb_col=emb_col, scale=scale,
        with_centroids=True,
    )

    def tag(t: pa.Table, centroids=broadcast(cent)) -> pa.Table:
        C = centroids()
        mat = emb_matrix(t[emb_col]).astype(np.float32)
        Xi = np.floor(mat.astype(np.float64) * float(scale))
        D = ((Xi[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        n, d = mat.shape
        blobs = [mat[i].tobytes() for i in range(n)]
        return pa.table(
            {
                id_col: t[id_col],
                "cluster": pa.array(D.argmin(1).astype(np.int64)),
                "_emb": pa.array(blobs, type=pa.binary()),
            }
        )

    def per_cluster(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy()
        order = np.argsort(ids, kind="quicksort")  # ids unique: total order
        ids = ids[order]
        M = np.stack(
            [np.frombuffer(b, dtype=np.float32)
             for b in g["_emb"].to_numpy()[order]]
        )
        M = _normalize(M)
        sims = M @ M.T
        # dup[i] ⇔ ∃ j < i (id order) with cos ≥ threshold
        dup = np.tril(sims >= threshold, -1).any(axis=1)
        return pa.table({
            id_col: ids,
            "cluster": np.repeat(np.int64(g["cluster"][0].as_py()), ids.size),
            "keep": (~dup).astype(np.int64),
        })

    return by_key(
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True),
        "cluster", per_key("cluster", per_cluster),
        lambda s: pa.schema([s.field(id_col), ("cluster", pa.int64()),
                             ("keep", pa.int64())]))


def dim_ranges(ds, emb_col: str = "embedding"):
    """Per-dimension global (min, max) over the embedding column — the SQ8
    quantization codebook. Each batch collapses to ONE row per dimension
    (elementwise min/max over the batch matrix), then ``group_agg``
    merges; the combine sees O(dims × batches) rows. Output: ``dim, mn,
    mx`` in dim order."""

    def partial(t: pa.Table) -> pa.Table:
        m = emb_matrix(t[emb_col])
        return pa.table(
            {
                "dim": pa.array(np.arange(m.shape[1], dtype=np.int64)),
                "p_min": pa.array(m.min(axis=0).astype(np.float32)),
                "p_max": pa.array(m.max(axis=0).astype(np.float32)),
            }
        )

    return group_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "dim", {"mn": ("min", "p_min"), "mx": ("max", "p_max")},
    )


def dim_bounds(ds, emb_col: str = "embedding"):
    """:func:`dim_ranges` collected to the driver: ``(mn, mx)`` float32
    arrays indexed by dimension (O(dims), tiny)."""
    t = pa.concat_tables(list(
        dim_ranges(ds, emb_col).iter_batches(batch_format="pyarrow")
    ))
    return (t["mn"].to_numpy(zero_copy_only=False),
            t["mx"].to_numpy(zero_copy_only=False))


def sq8_quantize(m: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """uint8 scalar quantization, computed in float64 with ONE expression
    shape — ``floor((v − mn)·255 / (mx − mn))`` clipped to [0, 255] — so a
    SQL twin using the same expression is bit-exact. Degenerate dimensions
    (mx == mn) quantize to 0."""
    m64 = m.astype(np.float64)
    mn64 = mn.astype(np.float64)
    mx64 = mx.astype(np.float64)
    span = mx64 - mn64
    q = np.floor((m64 - mn64) * 255.0 / np.where(span > 0, span, 1.0))
    q = np.where(span > 0, q, 0.0)
    return np.clip(q, 0, 255).astype(np.int64)


def sq8_topk(ds, query_mask_mod: int = 10, k: int = 5,
             id_col: str = "vec_id", emb_col: str = "embedding"):
    """ANN top-k over SCALAR-QUANTIZED (SQ8) codes — the 4×-memory-
    reduction scale path for brute-force scoring: each float32 dimension
    compresses to one byte using the distributed per-dim (min, max) from
    :func:`dim_ranges`, and scoring is an INTEGER dot product of codes —
    exact under any execution order, so unlike float-scored ANN the whole
    ranking (not just the id set) is SQL-checkable bit-for-bit.

    Queries are the rows with ``vec_id % query_mask_mod == 0`` (the
    ann_topk convention), quantized with the SAME ranges and broadcast.
    Per batch: quantize rows, int64 matmul vs the query code matrix, local
    top-k; ``rank.grouped_topk`` merges. Self-matches are excluded.
    Output: ``query_id, neighbor_id, score, rank``."""
    mn, mx = dim_bounds(ds, emb_col)

    # queries: one streamed filter pass, collected (bounded by the mask)
    def pick_queries(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        keep = pa.array(ids % query_mask_mod == 0)
        return pa.table(
            {id_col: t[id_col].filter(keep), emb_col: t[emb_col].filter(keep)}
        )

    q_t = pa.concat_tables(
        list(ds.map_batches(pick_queries, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ))
    )
    q_ids = q_t[id_col].to_numpy(zero_copy_only=False)
    q_codes = sq8_quantize(emb_matrix(q_t[emb_col]), mn, mx)
    queries = broadcast((q_ids, q_codes))

    def local_fn(t: pa.Table) -> pa.Table:
        q_ids, q_codes = queries()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        id_order = np.argsort(ids, kind="stable")
        ids = ids[id_order]
        codes = sq8_quantize(emb_matrix(t[emb_col]), mn, mx)[id_order]
        scores = q_codes @ codes.T  # int64-exact
        scores[q_ids[:, None] == ids[None, :]] = -1  # codes ≥ 0
        kk = min(k, ids.size)
        part = np.argsort(-scores, axis=1, kind="stable")[:, :kk]
        qidx = np.repeat(np.arange(q_ids.size), kk)
        nidx = part.reshape(-1)
        out = pa.table({"query_id": q_ids[qidx], "neighbor_id": ids[nidx],
                        "score": scores[qidx, nidx]})
        return out.filter(pc.greater_equal(out["score"], 0))

    local = ds.map_batches(local_fn, batch_format="pyarrow")

    return grouped_topk(local, ["query_id"], ["score", "neighbor_id"],
                        [False, True], k)


def pq_topk(ds, m_subspaces: int = 8, n_codewords: int = 16,
            query_mask_mod: int = 10, k: int = 5,
            id_col: str = "vec_id", emb_col: str = "embedding"):
    """ANN top-k via PRODUCT QUANTIZATION with asymmetric-distance (ADC)
    scoring (Jegou et al. 2011) - the memory scale path beyond SQ8: each
    vector stores only ``m_subspaces`` one-byte codeword ids (64x smaller
    than float32 at 64 dims / 8 subspaces), and scoring gathers per-query
    lookup tables instead of touching the vector at all.

    Exactness contract: everything downstream of the float input runs on
    SQ8 INTEGER codes (:func:`sq8_quantize` with the distributed per-dim
    ranges), so subspace assignment (integer L2, ties to the lowest
    codeword id) and ADC scores (integer dots) are order-independent and
    the full ranking is SQL-checkable bit-for-bit.

    Codebook: the ``n_codewords`` vectors with the smallest ids serve as
    codewords per subspace (random-sample codebook - the standard PQ init;
    a k-means refinement would slot in via the kmeans op without changing
    the scoring contract). Tiny (cw x dims ints), broadcast once.

    Per batch: quantize -> per-subspace assignment (one (rows, cw, d_sub)
    squared-distance reduction per subspace) -> per-query LUT gather ->
    local top-k; ``rank.grouped_topk`` merges. Self-matches
    excluded. Output: ``query_id, neighbor_id, score, rank``."""
    mn, mx = dim_bounds(ds, emb_col)

    def pick(pred):
        def fn(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False)
            keep = pa.array(pred(ids))
            return pa.table(
                {id_col: t[id_col].filter(keep),
                 emb_col: t[emb_col].filter(keep)}
            )
        return fn

    def collect(pred):
        t = pa.concat_tables(
            list(ds.map_batches(pick(pred), batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow"))
        )
        ids = t[id_col].to_numpy(zero_copy_only=False)
        o = np.argsort(ids, kind="quicksort")
        return ids[o], sq8_quantize(emb_matrix(t[emb_col])[o], mn, mx)

    cb_ids, cb_codes = collect(lambda i: i < n_codewords)  # codebook rows
    q_ids, q_codes = collect(lambda i: i % query_mask_mod == 0)

    d = cb_codes.shape[1]
    if d % m_subspaces:
        raise ValueError(f"dims {d} not divisible by {m_subspaces} subspaces")
    d_sub = d // m_subspaces
    # (cw, sub, d_sub) codebook and (nq, sub, cw) per-query ADC tables
    cb_sub = cb_codes.reshape(cb_codes.shape[0], m_subspaces, d_sub)
    q_sub = q_codes.reshape(q_codes.shape[0], m_subspaces, d_sub)
    lut = np.einsum("qsd,csd->qsc", q_sub, cb_sub)  # int64-exact
    tables = broadcast((q_ids, lut.reshape(q_ids.size, -1), cb_sub))

    def local_fn(t: pa.Table) -> pa.Table:
        q_ids, lut2, cb_sub = tables()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        id_order = np.argsort(ids, kind="stable")
        ids = ids[id_order]
        codes = sq8_quantize(emb_matrix(t[emb_col]), mn, mx)[
            id_order
        ].reshape(ids.size, m_subspaces, d_sub)
        scores = lut2[:, _pq_codes(codes, cb_sub)].sum(axis=2)  # (nq, rows)
        scores[q_ids[:, None] == ids[None, :]] = -1  # codes >= 0
        kk = min(k, ids.size)
        part = np.argsort(-scores, axis=1, kind="stable")[:, :kk]
        qidx = np.repeat(np.arange(q_ids.size), kk)
        nidx = part.reshape(-1)
        out = pa.table({"query_id": q_ids[qidx], "neighbor_id": ids[nidx],
                        "score": scores[qidx, nidx]})
        return out.filter(pc.greater_equal(out["score"], 0))

    local = ds.map_batches(local_fn, batch_format="pyarrow")

    return grouped_topk(local, ["query_id"], ["score", "neighbor_id"],
                        [False, True], k)


def ivf_pq_topk(ds, m_subspaces: int = 8, n_codewords: int = 16,
                query_mask_mod: int = 10, k: int = 5,
                n_centroids: int = 16, n_probe: int = 4,
                id_col: str = "vec_id", emb_col: str = "embedding",
                sample_mat: np.ndarray | None = None):
    """IVF pruning COMPOSED with PQ-ADC scoring - the FAISS ``IVF,PQ``
    shape and the furthest point on this repo's ANN memory/compute
    frontier: pruning scores only ``n_probe/n_centroids`` of the data,
    and each scored vector is ``m_subspaces`` one-byte codeword ids
    gathered through a per-query lookup table (no vector touched).

    Same exactness contract as :func:`pq_topk` (everything downstream of
    the float input is SQ8 integer code math), same IVF geometry as
    :func:`ivf_sq8_topk` (float-space centroid assignment is a one-time
    index-build cost). At ``n_probe == n_centroids`` the output is
    mathematically identical to :func:`pq_topk` (hard-checked against
    the relational PQ oracle); pruned mode is recall-tested on clustered
    data. Output: ``query_id, neighbor_id, score, rank``."""
    mn, mx = dim_bounds(ds, emb_col)

    def pick(pred):
        def fn(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False)
            keep = pa.array(pred(ids))
            return pa.table(
                {id_col: t[id_col].filter(keep),
                 emb_col: t[emb_col].filter(keep)}
            )
        return fn

    def collect(pred):
        t = pa.concat_tables(
            list(ds.map_batches(pick(pred), batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow"))
        )
        ids = t[id_col].to_numpy(zero_copy_only=False)
        o = np.argsort(ids, kind="quicksort")
        return ids[o], emb_matrix(t[emb_col])[o]

    _, cb_mat = collect(lambda i: i < n_codewords)
    q_ids, q_mat = collect(lambda i: i % query_mask_mod == 0)
    cb_codes = sq8_quantize(cb_mat, mn, mx)
    q_codes = sq8_quantize(q_mat, mn, mx)

    d = cb_codes.shape[1]
    if d % m_subspaces:
        raise ValueError(f"dims {d} not divisible by {m_subspaces} subspaces")
    d_sub = d // m_subspaces
    cb_sub = cb_codes.reshape(cb_codes.shape[0], m_subspaces, d_sub)
    q_sub = q_codes.reshape(q_codes.shape[0], m_subspaces, d_sub)
    lut2 = np.einsum("qsd,csd->qsc", q_sub, cb_sub).reshape(q_ids.size, -1)

    if sample_mat is None:
        sample_mat = q_mat
    cents = train_centroids(np.asarray(sample_mat), n_centroids)
    probe = np.argsort(-(_normalize(q_mat) @ cents.T), axis=1)[:, :n_probe]
    tables = broadcast((q_ids, lut2, cb_sub, cents,
                        _probing_queries(probe, cents.shape[0])))

    def local_fn(t: pa.Table) -> pa.Table:
        q_ids, lut2, cb_sub, cents, bucket_queries = tables()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        id_order = np.argsort(ids, kind="stable")
        ids = ids[id_order]
        fmat = emb_matrix(t[emb_col])[id_order]
        ivf = (_normalize(fmat) @ cents.T).argmax(axis=1)
        codes = sq8_quantize(fmat, mn, mx).reshape(
            ids.size, m_subspaces, d_sub)
        flat = _pq_codes(codes, cb_sub)
        out_q, out_n, out_s = [], [], []
        for b in np.unique(ivf):
            qs = bucket_queries[int(b)]
            if qs.size == 0:
                continue
            rows = np.flatnonzero(ivf == b)
            scores = lut2[qs][:, flat[rows]].sum(axis=2)
            scores[q_ids[qs][:, None] == ids[rows][None, :]] = -1
            kk = min(k, rows.size)
            part = np.argsort(-scores, axis=1, kind="stable")[:, :kk]
            qidx = np.repeat(np.arange(qs.size), kk)
            nidx = part.reshape(-1)
            out_q.append(q_ids[qs][qidx])
            out_n.append(ids[rows][nidx])
            out_s.append(scores[qidx, nidx])
        if not out_q:
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "neighbor_id": pa.array([], pa.int64()),
                 "score": pa.array([], pa.int64())}
            )
        out = pa.table({"query_id": np.concatenate(out_q),
                        "neighbor_id": np.concatenate(out_n),
                        "score": np.concatenate(out_s)})
        return out.filter(pc.greater_equal(out["score"], 0))

    local = ds.map_batches(local_fn, batch_format="pyarrow")

    return grouped_topk(local, ["query_id"], ["score", "neighbor_id"],
                        [False, True], k)


def knn_classify(ds, query_ids: np.ndarray, query_mat: np.ndarray,
                 k: int = 5, id_col: str = "vec_id",
                 emb_col: str = "embedding", label_col: str = "label",
                 num_partitions: int | None = None):
    """k-NN CLASSIFIER: each query's label predicted by majority vote of
    its k nearest neighbors (exact brute cosine, self excluded); vote
    ties break to the SMALLEST label, deterministically. The evaluation
    staple over an embedding column.

    Plan: :func:`brute_topk` (broadcast queries, local top-k, grouped merge)
    → hash join neighbor ids to their labels → per-(query, label) vote
    counts collapse per batch (≤ k rows a query) → per-query argmax:
    ``runtime.by_key`` on the query id with a vectorized sort +
    first-per-run inside — no per-query Python call.

    Output: ``query_id, pred_label, votes``.
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    from georay.ops import buckets as bk

    topk = brute_topk(ds, query_ids, query_mat, k=k,
                      id_col=id_col, emb_col=emb_col)

    labels = ds.select_columns([id_col, label_col])

    def neighbor_key(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t["neighbor_id"],
                         "query_id": t["query_id"]})

    joined = join(
        topk.map_batches(neighbor_key, batch_format="pyarrow"),
        labels, "inner", on=(id_col,), num_partitions=num_partitions,
    )

    def votes(t: pa.Table) -> pa.Table:
        q = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lab = t[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pack = q * (np.int64(1) << 20) + lab  # labels fit 20 bits
        u, n = np.unique(pack, return_counts=True)
        return pa.table({"query_id": u >> 20, "lab": u & ((1 << 20) - 1),
                         "n": n.astype(np.int64)})

    out_schema = pa.schema([("query_id", pa.int64()),
                            ("pred_label", pa.int64()),
                            ("votes", pa.int64())])

    def argmax_bucket(g: pa.Table) -> pa.Table:
        # counts for one query may span batches: merge first, then argmax
        m = g.group_by(["query_id", "lab"], use_threads=False).aggregate(
            [("n", "sum")])
        q = m["query_id"].to_numpy()
        lab, n = m["lab"].to_numpy(), m["n_sum"].to_numpy()
        order = np.lexsort((lab, -n, q))
        qs = q[order]
        first = bk.segment_starts(qs)
        return pa.table({"query_id": qs[first],
                         "pred_label": lab[order][first],
                         "votes": n[order][first]})

    return by_key(joined.map_batches(votes, batch_format="pyarrow"),
                  "query_id", argmax_bucket, out_schema,
                  num_partitions=num_partitions)


def rrf_fuse(rankings, k: int = 10, c: int = 60,
             scale: int = 1_000_000_000):
    """Reciprocal-rank fusion (Cormack et al.) of N per-query rankings:
    fused score = Σ_rankers ⌊scale / (c + rank)⌋ — the floor makes every
    term int64, so the fused sum is exact under any combine order and the
    final ranking bit-matches SQL. Inputs: Datasets with ``query_id,
    neighbor_id, rank`` (rank 1-based). Plan: per-ranker term map → union
    → one (query, neighbor) ``group_agg`` sum → bucketized per-query top-k
    (ops.rank.grouped_topk — no per-query Python call).

    Output: ``query_id, neighbor_id, rrf_score, fused_rank`` (1..k,
    ties broken by neighbor_id ascending).
    """
    from georay.ops.rank import grouped_topk

    def to_term(t: pa.Table) -> pa.Table:
        r = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "query_id": t["query_id"].cast(pa.int64()),
            "neighbor_id": t["neighbor_id"].cast(pa.int64()),
            "t": np.int64(scale) // (np.int64(c) + r),
        })

    terms = [r.map_batches(to_term, batch_format="pyarrow")
             for r in rankings]
    u = terms[0]
    for t in terms[1:]:
        u = u.union(t)
    fused = group_agg(u, ["query_id", "neighbor_id"],
                      {"rrf_score": ("sum", "t")})
    return grouped_topk(fused, ["query_id"],
                        ["rrf_score", "neighbor_id"], [False, True],
                        k=k, rank_col="fused_rank")

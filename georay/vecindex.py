"""Persisted IVF-SQ8 / IVF-PQ vector index over a partitioned Parquet layout.

Mirror of :class:`georay.index.CellIndex` for the ANN family (VERDICT r4
missing #1): build → save → open → query, so a large-corpus user trains
the quantizers ONCE and queries many times, instead of re-deriving the
SQ8 codebook and coarse centroids in-flight on every query set the way
``ops.similarity.ivf_sq8_topk`` does. Same storage discipline as the
spatial index: one parquet partition per inverted list (coarse-centroid
bucket) written via the checkpointed ``runtime.write_partitioned``
(per-partition atomic commit + manifest → resumable builds), and all
non-parquet sidecars underscore-prefixed (``_vecindex.json`` props +
``_quantizer.npz`` arrays — directory-level parquet readers crash on
unprefixed stray files, CLAUDE.md invariant).

Queries prune at the partition level — only the probed buckets' files
are opened (the IVF analogue of CellIndex's cell-prefix pruning) — and
score stored uint8 codes with int64 math only. Two storage kinds:

- ``ivf_sq8`` (default): each vector stores its full ``dim``-byte SQ8
  code; scoring is an int64 dot against the query's SQ8 code.
- ``ivf_pq`` (:meth:`build_pq`): each vector stores only
  ``m_subspaces`` one-byte PQ codeword ids (FAISS ``IVF,PQ`` shape,
  Jegou et al. 2011) and scoring gathers per-query integer ADC lookup
  tables — the memory scale path (8 bytes/vector at 64 dims).

The quantization (``sq8_quantize``), centroid training
(``train_centroids``), assignment expressions and the (score DESC,
neighbor_id ASC) merge are shared with / identical to the in-flight
pipelines, so at ``n_probe == n_centroids`` a loaded index returns
bit-identical rows to ``ivf_sq8_topk`` / ``ivf_pq_topk`` and to the
integer SQL oracles (the ``ann_index_lifecycle`` and
``ann_index_pq_lifecycle`` harness queries assert exactly that).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from georay import runtime
from georay.ops.similarity import (
    _normalize,
    dim_bounds,
    emb_matrix,
    sq8_quantize,
    train_centroids,
)

_PROPS = "_vecindex.json"
_QUANT = "_quantizer.npz"


def _codes_view(col, dim: int) -> np.ndarray:
    """Binary column of fixed ``dim``-byte SQ8 codes → (n, dim) uint8
    matrix with one buffer slice (no per-row frombuffer)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if len(arr) == 0:
        return np.empty((0, dim), np.uint8)
    off = np.frombuffer(arr.buffers()[1], dtype=np.int32)
    off = off[arr.offset: arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    flat = data[off[0]: off[-1]]
    if flat.size != len(arr) * dim:
        raise ValueError("vecindex: ragged code blobs (corrupt partition?)")
    return flat.reshape(len(arr), dim)


class VecIndex:
    """Handle to an on-disk IVF-SQ8 index (CellIndex parity for vectors)."""

    def __init__(self, root: str):
        self.root = root
        with open(os.path.join(root, _PROPS)) as f:
            props = json.load(f)
        self.n_centroids = props["n_centroids"]
        self.dim = props["dim"]
        self.id_col = props["id_col"]
        self.kind = props.get("kind", "ivf_sq8")
        q = np.load(os.path.join(root, _QUANT))
        self.cents = q["cents"]
        self.mn = q["mn"]
        self.mx = q["mx"]
        if self.kind == "ivf_pq":
            self.cb_sub = q["cb_sub"]  # (n_codewords, m_subspaces, d_sub)
            self.m_subspaces = int(props["m_subspaces"])

    # -------------------------------------------------------------- building

    @staticmethod
    def build(
        ds,
        root: str,
        sample_mat: np.ndarray,
        n_centroids: int = 16,
        id_col: str = "vec_id",
        emb_col: str = "embedding",
        resume: bool = True,
    ) -> "VecIndex":
        """Train quantizers, encode every vector, write one partition per
        inverted list. ``sample_mat`` seeds the (deterministic) driver-side
        centroid training — pass the same sample the in-flight pipeline
        would use for bit-parity, or any representative sample otherwise.

        The SQ8 codebook (per-dim min/max) is computed DISTRIBUTED over
        the full corpus (``dim_ranges``); only the O(dim)
        result and the O(n_centroids × dim) centroids live driver-side."""
        import ray

        os.makedirs(root, exist_ok=True)

        mn, mx = dim_bounds(ds, emb_col)
        cents = train_centroids(np.asarray(sample_mat), n_centroids)
        dim = int(mn.size)

        ref = ray.put((cents, mn, mx))

        def encode(t: pa.Table) -> pa.Table:
            c, lo, hi = ray.get(ref)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            fmat = emb_matrix(t[emb_col])
            # identical assignment expression to ivf_sq8_topk's BucketTopK
            assign = (_normalize(fmat) @ c.T).argmax(axis=1)
            codes = sq8_quantize(fmat, lo, hi).astype(np.uint8)
            buf = codes.tobytes()
            blobs = [buf[i * dim: (i + 1) * dim] for i in range(ids.size)]
            return pa.table({
                id_col: ids,
                "code": pa.array(blobs, type=pa.binary()),
                "_bucket": assign.astype(np.int64),
            })

        runtime.write_partitioned(
            ds.map_batches(encode, batch_format="pyarrow"),
            root, "_bucket", resume=resume,
            lineage=f"vecindex build n_centroids={n_centroids}",
        )
        np.savez(os.path.join(root, _QUANT), cents=cents, mn=mn, mx=mx)
        props = {"n_centroids": int(n_centroids), "dim": dim,
                 "id_col": id_col, "kind": "ivf_sq8"}
        tmp = os.path.join(root, _PROPS + ".tmp")
        with open(tmp, "w") as f:
            json.dump(props, f)
        os.replace(tmp, os.path.join(root, _PROPS))
        return VecIndex(root)

    @staticmethod
    def build_pq(
        ds,
        root: str,
        sample_mat: np.ndarray,
        cb_mat: np.ndarray,
        n_centroids: int = 16,
        m_subspaces: int = 8,
        id_col: str = "vec_id",
        emb_col: str = "embedding",
        resume: bool = True,
    ) -> "VecIndex":
        """IVF-PQ build: every vector persists as ``m_subspaces`` one-byte
        PQ codeword ids (vs ``dim`` bytes for SQ8) plus its inverted-list
        bucket — the FAISS ``IVF,PQ`` layout. ``cb_mat`` is the
        (n_codewords, dim) float codebook sample (the in-flight
        ``ivf_pq_topk`` uses the vectors with the smallest ids — pass the
        same rows for bit-parity); it is SQ8-quantized with the
        distributed per-dim ranges so the per-subspace assignment argmin
        (integer L2, ties to the lowest codeword id) and the query-time
        ADC tables are pure int64 and order-independent."""
        import ray

        os.makedirs(root, exist_ok=True)

        mn, mx = dim_bounds(ds, emb_col)
        dim = int(mn.size)
        if dim % m_subspaces:
            raise ValueError(
                f"dims {dim} not divisible by {m_subspaces} subspaces")
        d_sub = dim // m_subspaces
        cb_codes = sq8_quantize(np.asarray(cb_mat), mn, mx)
        cb_sub = cb_codes.reshape(cb_codes.shape[0], m_subspaces, d_sub)
        cents = train_centroids(np.asarray(sample_mat), n_centroids)

        ref = ray.put((cents, mn, mx, cb_sub))

        def encode(t: pa.Table) -> pa.Table:
            c, lo, hi, cb = ray.get(ref)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            fmat = emb_matrix(t[emb_col])
            assign = (_normalize(fmat) @ c.T).argmax(axis=1)
            codes = sq8_quantize(fmat, lo, hi).reshape(
                ids.size, m_subspaces, d_sub)
            # per-subspace integer L2 argmin — identical expression to
            # ivf_pq_topk's BucketTopK (ties break to the lowest cw id)
            pq_assign = np.empty((ids.size, m_subspaces), np.uint8)
            for s in range(m_subspaces):
                diff = codes[:, s, None, :] - cb[None, :, s, :]
                pq_assign[:, s] = np.argmin(
                    np.einsum("rcd,rcd->rc", diff, diff), axis=1)
            buf = pq_assign.tobytes()
            blobs = [buf[i * m_subspaces: (i + 1) * m_subspaces]
                     for i in range(ids.size)]
            return pa.table({
                id_col: ids,
                "code": pa.array(blobs, type=pa.binary()),
                "_bucket": assign.astype(np.int64),
            })

        runtime.write_partitioned(
            ds.map_batches(encode, batch_format="pyarrow"),
            root, "_bucket", resume=resume,
            lineage=(f"vecindex build_pq n_centroids={n_centroids} "
                     f"m_subspaces={m_subspaces}"),
        )
        np.savez(os.path.join(root, _QUANT),
                 cents=cents, mn=mn, mx=mx, cb_sub=cb_sub)
        props = {"n_centroids": int(n_centroids), "dim": dim,
                 "id_col": id_col, "kind": "ivf_pq",
                 "m_subspaces": int(m_subspaces)}
        tmp = os.path.join(root, _PROPS + ".tmp")
        with open(tmp, "w") as f:
            json.dump(props, f)
        os.replace(tmp, os.path.join(root, _PROPS))
        return VecIndex(root)

    # -------------------------------------------------------------- querying

    def _files_for_buckets(self, buckets: set[int]) -> list[str]:
        out = []
        for f in os.listdir(self.root):
            if f.startswith("part-") and f.endswith(".parquet"):
                b = int(f[len("part-"): -len(".parquet")].rsplit("-", 1)[0])
                if b in buckets:
                    out.append(os.path.join(self.root, f))
        return sorted(out)

    def query_topk(self, query_ids: np.ndarray, query_mat: np.ndarray,
                   k: int = 5, n_probe: int = 4):
        """Top-k by int64 code math over the probed inverted lists only —
        partition-pruned read, per-batch local top-k, one per-query merge.
        ``ivf_sq8``: SQ8 query code · stored SQ8 code dot products;
        ``ivf_pq``: per-query integer ADC lookup tables gathered through
        the stored PQ codeword ids (no vector reconstructed). Self-matches
        (same id) are excluded, ties break by ascending neighbor id; at
        ``n_probe == n_centroids`` the ranking is bit-identical to the
        in-flight ``ivf_sq8_topk`` / ``ivf_pq_topk``.
        Output: ``query_id, neighbor_id, score, rank``."""
        import pandas as pd
        import ray

        from georay.runtime import per_process

        q_ids = np.asarray(query_ids, dtype=np.int64)
        q_mat = np.asarray(query_mat)
        q_codes = sq8_quantize(q_mat, self.mn, self.mx)
        if self.kind == "ivf_pq":
            # per-query flattened ADC tables: (nq, m_subspaces * n_cw)
            n_cw = self.cb_sub.shape[0]
            d_sub = self.dim // self.m_subspaces
            q_sub = q_codes.reshape(q_ids.size, self.m_subspaces, d_sub)
            q_codes = np.einsum("qsd,csd->qsc", q_sub, self.cb_sub).reshape(
                q_ids.size, -1)
            cw_off = n_cw * np.arange(self.m_subspaces, dtype=np.int64)
            code_width = self.m_subspaces
        else:
            cw_off = None
            code_width = self.dim
        probe = np.argsort(-(_normalize(q_mat) @ self.cents.T),
                           axis=1)[:, :n_probe]
        files = self._files_for_buckets(
            set(np.unique(probe.reshape(-1)).tolist()))
        if not files:
            return ray.data.from_arrow(pa.table({
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "score": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }))
        ref = ray.put((q_ids, q_codes, probe, self.n_centroids, cw_off))
        state_key = "georay-vecindex-" + ref.hex()
        id_col = self.id_col

        class Scorer:
            def __init__(self):
                (self.q_ids, self.q_codes, probe, n_cents,
                 self.cw_off) = ray.get(ref)
                self.bucket_queries = [
                    np.flatnonzero((probe == b).any(axis=1))
                    for b in range(n_cents)
                ]

            def __call__(self, t: pa.Table) -> pa.Table:
                ids = t[id_col].to_numpy(zero_copy_only=False)
                # ascending-id layout → the stable local argsort's tie
                # break at the k boundary matches the global
                # (score DESC, neighbor_id ASC) rule (see ivf_sq8_topk)
                id_order = np.argsort(ids, kind="stable")
                ids = ids[id_order]
                codes = _codes_view(t["code"], code_width)[id_order].astype(
                    np.int64)
                assign = t["_bucket"].to_numpy(
                    zero_copy_only=False)[id_order]
                out_q, out_n, out_s = [], [], []
                for b in np.unique(assign):
                    qs = self.bucket_queries[int(b)]
                    if qs.size == 0:
                        continue
                    rows = np.flatnonzero(assign == b)
                    if self.cw_off is not None:
                        # PQ-ADC: gather each stored codeword id through
                        # the query's flattened lookup table — identical
                        # expression to ivf_pq_topk's BucketTopK
                        scores = self.q_codes[qs][
                            :, codes[rows] + self.cw_off].sum(axis=2)
                    else:
                        scores = self.q_codes[qs] @ codes[rows].T
                    scores[self.q_ids[qs][:, None]
                           == ids[rows][None, :]] = -1
                    kk = min(k, rows.size)
                    part = np.argsort(-scores, axis=1,
                                      kind="stable")[:, :kk]
                    qidx = np.repeat(np.arange(qs.size), kk)
                    nidx = part.reshape(-1)
                    out_q.append(self.q_ids[qs][qidx])
                    out_n.append(ids[rows][nidx])
                    out_s.append(scores[qidx, nidx])
                if not out_q:
                    return pa.table({
                        "query_id": pa.array([], pa.int64()),
                        "neighbor_id": pa.array([], pa.int64()),
                        "score": pa.array([], pa.int64()),
                    })
                return pa.table({
                    "query_id": np.concatenate(out_q),
                    "neighbor_id": np.concatenate(out_n),
                    "score": np.concatenate(out_s),
                })

        def local_fn(t: pa.Table) -> pa.Table:
            return per_process(state_key, Scorer)(t)

        local = ray.data.read_parquet(files).map_batches(
            local_fn, batch_format="pyarrow")

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            g = g[g["score"] >= 0]
            g = g.sort_values(["score", "neighbor_id"],
                              ascending=[False, True]).head(k)
            g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
            return g[["query_id", "neighbor_id", "score", "rank"]]

        return local.repartition(8).groupby("query_id").map_groups(
            merge, batch_format="pandas")

    # ------------------------------------------------------------ inspection

    def buckets(self) -> np.ndarray:
        """Inverted lists present on disk (sorted bucket ids)."""
        out = set()
        for f in os.listdir(self.root):
            if f.startswith("part-") and f.endswith(".parquet"):
                out.add(int(f[len("part-"): -len(".parquet")]
                            .rsplit("-", 1)[0]))
        return np.array(sorted(out), dtype=np.int64)

    def count(self) -> int:
        """Total indexed vectors (parquet metadata only, no data read)."""
        import pyarrow.parquet as pq

        return sum(
            pq.ParquetFile(os.path.join(self.root, f)).metadata.num_rows
            for f in os.listdir(self.root)
            if f.startswith("part-") and f.endswith(".parquet")
        )

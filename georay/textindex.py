"""Persisted MinHash-LSH near-duplicate index over a partitioned Parquet
layout.

Mirror of :class:`georay.vecindex.VecIndex` for the text-dedup family:
build → save → open → query, so a large-corpus user shingles and
min-hashes the corpus ONCE and then probes it many times (incremental
ingest dedup, cross-corpus contamination checks) instead of re-running
the full signature pass per query set the way
``ops.minhash.near_dup_pairs`` does in-flight. Same storage discipline
as CellIndex/VecIndex: one parquet partition per LSH pair-bucket for the
band table and one per id-hash bucket for the packed shingle sets, both
written via the checkpointed ``runtime.write_partitioned``
(per-partition atomic commit + manifest → resumable builds), sidecar
``_textindex.json`` underscore-prefixed (directory-level parquet readers
crash on unprefixed stray files, CLAUDE.md invariant).

The stored band table is EXACTLY the ``ops.minhash.band_rows`` output
the in-flight pipeline groups, and verification reuses
``jaccard_verify_packed`` over the stored shingle sets — so a self-query
of a loaded index returns bit-identical rows to
``near_dup_pairs(verify="shuffle")`` on the same corpus (the
``minhash_index_lifecycle`` harness query asserts exactly that against
the relational Jaccard oracle).

Queries against NEW documents prune at the partition level: only the
band partitions whose ``_pb`` bucket appears among the query docs' band
hashes are opened (the LSH analogue of CellIndex's cell-prefix pruning),
and candidate generation touches only (band, band-hash) buckets that
contain at least one query row.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from georay import io as gio
from georay import runtime
from georay.ops.minhash import (
    PAIR_SCHEMA,
    band_rows,
    candidate_pairs_from_bands,
    jaccard_verify_packed,
    minhash_signatures,
    shingle_sets,
)
from georay.ops.pairs import distinct_pairs
from georay.ops.sketch import splitmix64

_PROPS = "_textindex.json"
_BANDS = "bands"
_SHINGLES = "shingles"


def _with_pair_bucket(n_parts: int):
    """``band_rows`` rows + ``_pb = splitmix64(bh + salt·band) % n_parts``,
    the band table's partition key (query-time partition pruning)."""

    def fn(t: pa.Table) -> pa.Table:
        band = t["band"].to_numpy(zero_copy_only=False).view(np.uint64)
        bh = t["bh"].to_numpy(zero_copy_only=False).view(np.uint64)
        with np.errstate(over="ignore"):
            pb = splitmix64(bh + np.uint64(0x9E3779B9) * band)
        return t.append_column(
            "_pb", pa.array((pb % np.uint64(n_parts)).astype(np.int64)))

    return fn


def _part_files(d: str, parts: list[int] | None = None) -> list[str]:
    """Committed partition files (``part-<key>-<digest>.parquet`` — the
    runtime.write_partitioned naming), optionally pruned to ``parts``."""
    want = None if parts is None else {str(p) for p in parts}
    out = []
    for f in sorted(os.listdir(d)):
        if not (f.startswith("part-") and f.endswith(".parquet")):
            continue
        key = f[len("part-"):].rsplit("-", 1)[0]
        if want is None or key in want:
            out.append(os.path.join(d, f))
    return out


class MinHashIndex:
    """Handle to an on-disk MinHash-LSH index (CellIndex parity for text)."""

    def __init__(self, root: str):
        self.root = root
        with open(os.path.join(root, _PROPS)) as f:
            p = json.load(f)
        self.n_hashes = p["n_hashes"]
        self.n_bands = p["n_bands"]
        self.shingle_k = p["shingle_k"]
        self.n_parts = p["n_parts"]
        self.id_col = p["id_col"]
        self.text_col = p["text_col"]

    # ------------------------------------------------------------- build
    @staticmethod
    def build(docs_ds, root: str, n_hashes: int = 64, n_bands: int = 16,
              shingle_k: int = 5, id_col: str = "doc_id",
              text_col: str = "text", n_parts: int = 32,
              resume: bool = True) -> "MinHashIndex":
        """Shingle + minhash the corpus once; persist the band table
        partitioned by its LSH pair-bucket and the packed shingle sets
        partitioned by id hash. Both writes are independently resumable
        (committed partitions skip on re-run)."""
        if n_hashes % n_bands:
            raise ValueError(
                f"n_hashes ({n_hashes}) not divisible by n_bands ({n_bands})")
        if id_col != "doc_id":
            docs_ds = docs_ds.rename_columns({id_col: "doc_id"})
        sigs = minhash_signatures(docs_ds, n_hashes=n_hashes,
                                  shingle_k=shingle_k)
        bands = band_rows(sigs, n_bands=n_bands,
                          rows_per_band=n_hashes // n_bands).map_batches(
            _with_pair_bucket(n_parts), batch_format="pyarrow")
        runtime.write_partitioned(bands, os.path.join(root, _BANDS), "_pb",
                                  resume=resume)

        def add_sp(t: pa.Table) -> pa.Table:
            sid = t["sid"].to_numpy(zero_copy_only=False).astype(np.int64)
            sp = (splitmix64(sid.view(np.uint64))
                  % np.uint64(n_parts)).astype(np.int64)
            return t.append_column("_sp", pa.array(sp))

        sh = shingle_sets(docs_ds, shingle_k, "doc_id", text_col,
                          out_id="sid", out_col="sh"
                          ).map_batches(add_sp, batch_format="pyarrow")
        runtime.write_partitioned(sh, os.path.join(root, _SHINGLES), "_sp",
                                  resume=resume)
        with open(os.path.join(root, _PROPS), "w") as f:
            json.dump({"n_hashes": n_hashes, "n_bands": n_bands,
                       "shingle_k": shingle_k, "n_parts": n_parts,
                       "id_col": id_col, "text_col": text_col}, f)
        return MinHashIndex(root)

    # ------------------------------------------------------------- reads
    def _read_bands(self, parts: list[int] | None = None):
        return gio.read_parquet(
            _part_files(os.path.join(self.root, _BANDS), parts),
            ["band", "bh", "doc_id", "_pb"])

    def _read_shingles(self):
        return gio.read_parquet(
            _part_files(os.path.join(self.root, _SHINGLES)), ["sid", "sh"])

    # ----------------------------------------------------------- queries
    def self_pairs(self, threshold: float = 0.7,
                   max_bucket: int | None = 4096,
                   num_partitions: int | None = None):
        """Near-dup pairs WITHIN the indexed corpus — bit-equal to the
        in-flight ``near_dup_pairs(verify="shuffle")`` run that would have
        recomputed every signature: candidates from the stored band rows,
        exact Jaccard from the stored shingle sets."""
        cand = candidate_pairs_from_bands(self._read_bands(),
                                          max_bucket=max_bucket)
        return jaccard_verify_packed(cand, self._read_shingles(),
                                     threshold=threshold,
                                     num_partitions=num_partitions)

    def query_pairs(self, query_ds, threshold: float = 0.7,
                    max_bucket: int | None = 4096,
                    num_partitions: int | None = None):
        """Probe NEW documents against the indexed corpus. Query doc ids
        must be disjoint from corpus ids (the incremental-ingest
        contract). Returns (id_a = query id, id_b = corpus id, jaccard).

        Partition pruning: only band partitions whose ``_pb`` appears in
        the query docs' band rows are read; candidate emission touches
        only (band, bh) buckets containing ≥1 query row, capped and
        logged like every LSH bucket in the repo."""
        if self.id_col != "doc_id":
            query_ds = query_ds.rename_columns({self.id_col: "doc_id"})
        qsigs = minhash_signatures(query_ds, n_hashes=self.n_hashes,
                                   shingle_k=self.shingle_k)
        qb = band_rows(qsigs, n_bands=self.n_bands,
                       rows_per_band=self.n_hashes // self.n_bands
                       ).map_batches(_with_pair_bucket(self.n_parts),
                                     batch_format="pyarrow").materialize()
        parts = sorted(int(p) for p in qb.unique("_pb"))
        if not _part_files(os.path.join(self.root, _BANDS), parts):
            import ray.data

            return ray.data.from_arrow(pa.table({
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }))

        def tag(side: int):
            def fn(t: pa.Table) -> pa.Table:
                return t.append_column(
                    "side", pa.array(np.full(len(t), side, np.int64)))
            return fn

        both = (
            self._read_bands(parts)
            .map_batches(tag(0), batch_format="pyarrow")
            .union(qb.map_batches(tag(1), batch_format="pyarrow"))
        )

        empty = PAIR_SCHEMA.empty_table()

        def cross_pairs(g: pa.Table) -> pa.Table:
            side = g["side"].to_numpy()
            if not (side == 1).any() or not (side == 0).any():
                return empty
            # keep only (band, bh) buckets that contain a query row
            key = g["band"].to_numpy().astype(np.int64) * (1 << 48) ^ (
                g["bh"].to_numpy().astype(np.int64) & ((1 << 48) - 1))
            qkeys = np.unique(key[side == 1])
            hit = np.isin(key, qkeys)
            if not hit.any():
                return empty
            ids = g["doc_id"].to_numpy()[hit]
            kk = key[hit]
            ss = side[hit]
            order = np.lexsort((ss, ids, kk))
            ids_s, kk_s, ss_s = ids[order], kk[order], ss[order]
            new = np.empty(ids_s.size, bool)
            new[0] = True
            new[1:] = kk_s[1:] != kk_s[:-1]
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], ids_s.size)
            out_a, out_b = [], []
            for s, e in zip(starts, ends):  # runs with ≥1 query row only
                cs = ids_s[s:e][ss_s[s:e] == 0]
                qs = ids_s[s:e][ss_s[s:e] == 1]
                if not cs.size or not qs.size:
                    continue
                n_pairs = qs.size * cs.size
                if max_bucket is not None and n_pairs > max_bucket:
                    import logging

                    logging.getLogger("georay.textindex").warning(
                        "query bucket capped: %d pairs > %d", n_pairs,
                        max_bucket)
                    cs = cs[: max(1, max_bucket // qs.size)]
                out_a.append(np.repeat(qs, cs.size))
                out_b.append(np.tile(cs, qs.size))
            if not out_a:
                return empty
            return pa.table({
                "id_a": pa.array(np.concatenate(out_a).astype(np.int64)),
                "id_b": pa.array(np.concatenate(out_b).astype(np.int64)),
            })

        cand = distinct_pairs(
            runtime.by_key(both, ["band", "bh"], cross_pairs, PAIR_SCHEMA))
        qsh = shingle_sets(query_ds, self.shingle_k, "doc_id",
                           self.text_col, out_id="sid", out_col="sh")
        sh = self._read_shingles().union(qsh)
        return jaccard_verify_packed(cand, sh, threshold=threshold,
                                     num_partitions=num_partitions)

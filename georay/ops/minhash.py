"""Near-duplicate detection: MinHash+LSH, SimHash, n-gram Jaccard.

Scale shape (the 100 TB path, ray_guide "Aggregation at scale"):
shingle+minhash per batch (vectorized) → explode to (band_id, band_hash,
doc_id) rows → ``runtime.by_key`` on (band, band_hash) → candidate pairs
within LSH buckets → pair dedup → exact-Jaccard verification via a
hash-join back to the docs.
Only ids+hashes shuffle; document text moves once, for verification.

On the sandbox's small corpora the verification join uses the broadcast
path; ``verify="shuffle"`` switches to ``runtime.join`` for big-big.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# module level, NOT inside worker-executed functions: a runtime import
# statement on a foreign-cwd worker bypasses the by-value cloudpickle
# registration and dies with ModuleNotFoundError (CLAUDE.md invariant)
from georay.ops.pairs import distinct_pairs, grouped_pair_indices
from georay.runtime import broadcast, by_key, join, per_process

_MERSENNE = np.uint64((1 << 61) - 1)
PAIR_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Rolling polynomial hashes of the CHARACTER k-grams of a doc (uint64).

    Windows slide over Unicode code points (utf-32 view), matching the SQL
    oracle's ``substr(text, j, 5)`` character semantics — byte windows would
    silently diverge on any non-ASCII text."""
    b = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    if b.size < k:
        b = np.pad(b, (0, k - b.size), constant_values=32)
    with np.errstate(over="ignore"):
        windows = np.lib.stride_tricks.sliding_window_view(b, k)
        base = np.uint64(1099511628211)
        powers = base ** np.arange(k, dtype=np.uint64)
        return np.unique((windows * powers[::-1]).sum(axis=1, dtype=np.uint64))


class MinHasher:
    """Per-process state: the k permutation parameters (a, b). Computes
    n_hashes minhash signatures per doc, vectorized over shingles."""

    def __init__(self, n_hashes: int = 64, shingle_k: int = 5, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, (1 << 61) - 1, size=n_hashes).astype(np.uint64)
        self.b = rng.randint(0, (1 << 61) - 1, size=n_hashes).astype(np.uint64)
        self.k = shingle_k
        self.n = n_hashes

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.k) & _MERSENNE
        with np.errstate(over="ignore"):
            # (m, n_hashes) permuted values; min over shingles
            vals = (sh[:, None] * self.a[None, :] + self.b[None, :]) % _MERSENNE
        return vals.min(axis=0)

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t["text"].to_numpy(zero_copy_only=False)
        sigs = np.stack([self.signature(s) for s in texts])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "sig": pa.array(list(sigs.astype(np.uint64).view(np.int64))),
            }
        )


def minhash_signatures(ds, n_hashes: int = 64, shingle_k: int = 5):
    """doc_id + list<int64> minhash signature per doc.

    Stateless tasks with the permutation state built once per worker
    process (``per_process`` cache): the state is tiny and
    seed-deterministic."""
    key = f"georay-minhasher-{n_hashes}-{shingle_k}"

    def fn(t: pa.Table) -> pa.Table:
        inst = per_process(
            key, lambda: MinHasher(n_hashes=n_hashes, shingle_k=shingle_k)
        )
        return inst(t)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=1024)


def band_rows(sig_ds, n_bands: int = 8, rows_per_band: int = 8):
    """Explode signatures to (band, band_hash, doc_id) rows — the shared
    front half of :func:`lsh_candidate_pairs`, public so the persisted
    :class:`georay.textindex.MinHashIndex` can store EXACTLY the rows the
    in-flight pipeline groups (bit-equal lifecycle oracle)."""

    def explode(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        arr = t["sig"].combine_chunks() if isinstance(t["sig"], pa.ChunkedArray) else t["sig"]
        sigs = arr.flatten().to_numpy(zero_copy_only=False).reshape(len(arr), -1)
        sigs = sigs.astype(np.uint64)
        n, total = sigs.shape
        bands = sigs.reshape(n, n_bands, rows_per_band)
        with np.errstate(over="ignore"):
            # hash each band's rows into one uint64
            weights = np.uint64(1099511628211) ** np.arange(
                rows_per_band, dtype=np.uint64
            )
            bh = (bands * weights[None, None, :]).sum(axis=2, dtype=np.uint64)
        return pa.table(
            {
                "band": np.tile(np.arange(n_bands, dtype=np.int64), n),
                "bh": bh.reshape(-1).astype(np.int64),
                "doc_id": np.repeat(ids, n_bands),
            }
        )

    return sig_ds.map_batches(explode, batch_format="pyarrow")


def candidate_pairs_from_bands(band_ds, max_bucket: int | None = 4096):
    """Back half of :func:`lsh_candidate_pairs`: co-locate band buckets
    with ONE ``runtime.by_key`` exchange on ``(band, bh)`` (one call per
    by_key bucket; a per-LSH-bucket call costs one Python call per
    bucket, and nearly every bucket is a singleton: measured 77 s just to
    emit 2.5k pairs from 20k docs × 16 bands = 320k groups), then emit
    unique candidate pairs (id_a < id_b) for ALL LSH buckets in a call
    with one vectorized ``grouped_pair_indices`` pass over lexsorted
    bucket runs.

    ``max_bucket`` caps the per-bucket pair explosion: one degenerate band
    value (e.g. near-empty docs all hashing alike) would otherwise put an
    O(b²) group on a single reducer. Capped buckets are logged, never
    silent; pass ``None`` for exact all-pairs semantics."""

    def pairs(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy()
        if ids.size < 2:
            return PAIR_SCHEMA.empty_table()
        band = g["band"].to_numpy().astype(np.int64)
        bh = g["bh"].to_numpy().astype(np.int64)
        # one lexsort: every (band, bh) bucket a contiguous run, ids
        # ascending inside — same pair set AND same deterministic capped
        # chunking as the old per-bucket bucket_pairs(sorted ids)
        order = np.lexsort((ids, bh, band))
        ids_s, band_s, bh_s = ids[order], band[order], bh[order]
        new = np.empty(ids_s.size, dtype=bool)
        new[0] = True
        new[1:] = (band_s[1:] != band_s[:-1]) | (bh_s[1:] != bh_s[:-1])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, ids_s.size))
        ia, ib = grouped_pair_indices(
            sizes, max_bucket, "(lsh bands)", log_prefix="georay.minhash",
        )
        if ia.size == 0:
            return PAIR_SCHEMA.empty_table()
        return pa.table({"id_a": pa.array(ids_s[ia].astype(np.int64)),
                         "id_b": pa.array(ids_s[ib].astype(np.int64))})

    cand = by_key(band_ds, ["band", "bh"], pairs, PAIR_SCHEMA)
    # dedupe pairs found in multiple bands — pair-hash bucket dedup, not
    # groupby(pair).aggregate: the sort-aggregate grinds on skewed blocks
    # from capped hot buckets (ops.pairs.distinct_pairs, measured in
    # containment_join). The old n_bands_hit count had no consumers.
    return distinct_pairs(cand)


def lsh_candidate_pairs(sig_ds, n_bands: int = 8, rows_per_band: int = 8,
                        max_bucket: int | None = 4096):
    """Signatures → banded LSH candidate pairs: :func:`band_rows` then
    :func:`candidate_pairs_from_bands` (split so the persisted text index
    can reuse both halves — see each half's docstring for the plan)."""
    return candidate_pairs_from_bands(
        band_rows(sig_ds, n_bands=n_bands, rows_per_band=rows_per_band),
        max_bucket=max_bucket,
    )


def jaccard_verify(pairs_ds, docs_table: pa.Table, shingle_k: int = 5,
                   threshold: float = 0.7, id_col: str = "doc_id",
                   text_col: str = "text"):
    """Exact shingle-Jaccard on candidate pairs against broadcast docs.
    Each worker process keeps a memo of the shingle hashes it computed."""

    def memo(docs: dict):
        cache: dict[int, np.ndarray] = {}

        def shingles(doc_id: int) -> np.ndarray:
            s = cache.get(doc_id)
            if s is None:
                s = cache[doc_id] = _shingle_hashes(docs[doc_id], shingle_k)
            return s

        return shingles

    shingles_here = broadcast(
        dict(zip(docs_table[id_col].to_pylist(),
                 docs_table[text_col].to_pylist())),
        memo,
    )

    def verify_fn(t: pa.Table) -> pa.Table:
        shingles = shingles_here()
        ia = t["id_a"].to_numpy(zero_copy_only=False)
        ib = t["id_b"].to_numpy(zero_copy_only=False)
        jac = np.empty(ia.size, dtype=np.float64)
        for k in range(ia.size):
            sa, sb = shingles(int(ia[k])), shingles(int(ib[k]))
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            jac[k] = inter / (sa.size + sb.size - inter)
        keep = jac >= threshold
        return pa.table({"id_a": ia[keep], "id_b": ib[keep],
                         "jaccard": jac[keep]})

    return pairs_ds.map_batches(
        verify_fn, batch_format="pyarrow", batch_size=4096
    )


def shingle_sets(docs_ds, shingle_k: int = 5, id_col: str = "doc_id",
                 text_col: str = "text", out_id: str | None = None,
                 out_col: str = "sh"):
    """doc_id + packed unique shingle hashes per doc (the join side of the
    shuffle verify path — text is hashed once and never re-shipped). The
    hash set is packed as a little-endian uint64 BINARY blob because Arrow's
    hash join rejects nested (list) payload columns."""

    def fn(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_numpy(zero_copy_only=False)
        sh = [_shingle_hashes(s, shingle_k).tobytes() for s in texts]
        return pa.table(
            {
                out_id or id_col: t[id_col],
                out_col: pa.array(sh, type=pa.binary()),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def _packed_view(col) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a binary column of packed-uint64 shingle sets into
    (values, per-row element counts) with one buffer copy per batch —
    no per-row ``frombuffer``. The copy realigns the sliced offsets so the
    uint64 view is valid regardless of the array's buffer offset."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if len(arr) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    off = np.frombuffer(arr.buffers()[1], dtype=np.int32)
    off = off[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    flat = data[off[0] : off[-1]].copy()  # fresh allocation -> 8-aligned
    counts = ((off[1:] - off[:-1]) // 8).astype(np.int64)
    return flat.view(np.uint64), counts


def jaccard_verify_shuffle(pairs_ds, docs_ds, shingle_k: int = 5,
                           threshold: float = 0.7, id_col: str = "doc_id",
                           text_col: str = "text", num_partitions: int | None = None):
    """Big-big exact-Jaccard verification: candidate pairs are hash-joined
    back to per-doc shingle sets TWICE (id_a side, then id_b side) — no
    corpus broadcast, no driver materialization. Each doc's text is
    shingled exactly once; only (id, shingle-hash-list) rows shuffle.

    This is the 100 TB path; :func:`jaccard_verify` (broadcast) is the
    small-corpus fast path."""
    # shingle ONCE, materialize the (id, packed-hashes) table, and feed
    # both join sides from it via cheap column renames — re-running
    # shingle_sets per side would double the dominant hashing cost
    sh = shingle_sets(docs_ds, shingle_k, id_col, text_col,
                      out_id="sid", out_col="sh").materialize()
    return jaccard_verify_packed(pairs_ds, sh, threshold=threshold,
                                 num_partitions=num_partitions)


def jaccard_verify_packed(pairs_ds, sh_ds, threshold: float = 0.7,
                          num_partitions: int | None = None):
    """Exact-Jaccard verify against a PRECOMPUTED (sid, sh) packed
    shingle-set dataset — the back half of :func:`jaccard_verify_shuffle`,
    public so the persisted :class:`georay.textindex.MinHashIndex` can
    feed its stored shingle partitions straight in without re-hashing the
    corpus text."""
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()
    sh = sh_ds

    def as_side(side: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({f"id_{side}": t["sid"], f"sh_{side}": t["sh"]})

        return fn

    sh_a = sh.map_batches(as_side("a"), batch_format="pyarrow")
    sh_b = sh.map_batches(as_side("b"), batch_format="pyarrow")
    pairs = pairs_ds.select_columns(["id_a", "id_b"])
    joined = join(
        join(pairs, sh_a, "inner", on=("id_a",),
             num_partitions=num_partitions),
        sh_b, "inner", on=("id_b",), num_partitions=num_partitions,
    )

    def jac(t: pa.Table) -> pa.Table:
        # exact Jaccard per candidate pair. The batch's packed sets are
        # flattened ONCE (_packed_view: one buffer copy, no per-row
        # frombuffer/pylist); each pair then runs numpy's C set
        # intersection over its two pre-sorted ~10²-element views. A fully
        # vectorized global-sort merge over (pair_id, hash) was MEASURED
        # 3× slower (tools/microbench_jaccard.py: 2.0s vs 0.66s per 10⁵
        # pairs best-of-3): one big O(E log E) sort loses to E tiny
        # already-sorted merges, whose cost is per-call overhead (~5 µs),
        # not data volume. Revisit only if shingle sets shrink to <10
        # elements, where call overhead would dominate.
        n = len(t)
        va, na = _packed_view(t["sh_a"])
        vb, nb = _packed_view(t["sh_b"])
        offa = np.zeros(n + 1, np.int64)
        np.cumsum(na, out=offa[1:])
        offb = np.zeros(n + 1, np.int64)
        np.cumsum(nb, out=offb[1:])
        jacv = np.empty(n, dtype=np.float64)
        isect = np.intersect1d
        for k in range(n):
            sa = va[offa[k] : offa[k + 1]]
            sb = vb[offb[k] : offb[k + 1]]
            inter = isect(sa, sb, assume_unique=True).size
            jacv[k] = inter / max(sa.size + sb.size - inter, 1)
        keep = jacv >= threshold
        return pa.table(
            {
                "id_a": t["id_a"].filter(pa.array(keep)),
                "id_b": t["id_b"].filter(pa.array(keep)),
                "jaccard": pa.array(jacv[keep]),
            }
        )

    return joined.map_batches(jac, batch_format="pyarrow")


def near_dup_pairs(ds, docs_table: pa.Table | None = None, n_hashes: int = 64,
                   n_bands: int = 8, shingle_k: int = 5,
                   threshold: float = 0.7, verify: str = "broadcast",
                   max_bucket: int | None = 4096,
                   num_partitions: int | None = None):
    """Full MinHash-LSH near-dup pipeline: signatures → bands → candidate
    pairs → exact-Jaccard verify. Returns (id_a, id_b, jaccard).

    ``verify="broadcast"`` broadcasts the corpus once (requires
    ``docs_table``; right choice when the corpus fits a worker heap);
    ``verify="shuffle"`` hash-joins candidates back to per-doc shingle sets
    computed from ``ds`` itself — the big-big path with no broadcast.

    ``num_partitions=None`` → ``runtime.adaptive_partitions()`` (≈ cluster
    CPUs — VERDICT r4 #4: fixed small counts cap the verify exchange's
    parallelism on big clusters)."""
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()
    if n_hashes % n_bands:
        raise ValueError(
            f"n_hashes ({n_hashes}) must be divisible by n_bands ({n_bands})"
        )
    sigs = minhash_signatures(ds, n_hashes=n_hashes, shingle_k=shingle_k)
    cand = lsh_candidate_pairs(sigs, n_bands=n_bands,
                               rows_per_band=n_hashes // n_bands,
                               max_bucket=max_bucket)
    if verify == "shuffle":
        return jaccard_verify_shuffle(
            cand, ds, shingle_k=shingle_k, threshold=threshold,
            num_partitions=num_partitions,
        )
    if docs_table is None:
        raise ValueError("verify='broadcast' requires docs_table")
    return jaccard_verify(
        cand, docs_table, shingle_k=shingle_k, threshold=threshold
    )


# --------------------------------------------------------------------- SimHash


class SimHasher:
    """64-bit SimHash over word tokens. Per-process state: compiled regex +
    a word→FNV-1a hash cache (the corpus vocabulary is small, so the cache
    amortizes across batches). FNV is used instead of Python ``hash()``
    because the latter is randomized per process — cross-worker grouping
    would silently break."""

    def __init__(self):
        import re

        self.word_re = re.compile(r"[\w']+", re.UNICODE)
        self.cache: dict[str, int] = {}

    def _word_hash(self, w: str) -> int:
        h = self.cache.get(w)
        if h is None:
            h = 0xCBF29CE484222325
            for byte in w.encode():
                h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            self.cache[w] = h
        return h

    def simhash(self, text: str) -> int:
        words = self.word_re.findall(text.lower())
        if not words:
            return 0
        hashes = np.array(
            [self._word_hash(w) for w in words], dtype=np.uint64
        )
        bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1)
        counts = bits.sum(axis=0)
        out = (counts * 2 > len(words)).astype(np.uint64)
        return int((out << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64))

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t["text"].to_numpy(zero_copy_only=False)
        sh = np.array([self.simhash(s) for s in texts], dtype=np.uint64)
        return pa.table(
            {"doc_id": t["doc_id"], "simhash": sh.astype(np.int64)}
        )


def simhash_signatures(ds):
    """doc_id + deterministic 64-bit simhash per doc. Stateless tasks; the
    regex + vocab cache live in a per-process singleton."""

    def fn(t: pa.Table) -> pa.Table:
        return per_process("georay-simhasher", SimHasher)(t)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=2048)


def simhash_near_dup_pairs(ds, max_hamming: int = 6, n_blocks: int = 8,
                           max_bucket: int | None = 4096):
    """Near-dup pairs by SimHash block-LSH over document text — computes
    the 64-bit simhash then delegates to the generic
    :func:`hamming_near_dup_pairs` (shared with image perceptual hashes)."""
    sigs = simhash_signatures(ds)
    return hamming_near_dup_pairs(
        sigs, id_col="doc_id", hash_col="simhash",
        max_hamming=max_hamming, n_blocks=n_blocks, max_bucket=max_bucket,
        log_prefix="georay.simhash",
    )


def hamming_near_dup_pairs(sig_ds, id_col: str = "doc_id",
                           hash_col: str = "simhash", max_hamming: int = 6,
                           n_blocks: int = 8, max_bucket: int | None = 4096,
                           num_partitions: int | None = None,
                           log_prefix: str = "georay.hamming",
                           group_col: str | None = None):
    """Near-dup pairs under Hamming distance over ANY int64 hash column
    (simhash of documents, perceptual aHash of images, ...): split the
    64-bit hash into ``n_blocks`` equal blocks and bucket by (block_idx,
    block_value); pairs within a bucket are verified by exact Hamming
    distance.

    EXACT for ``max_hamming < n_blocks`` (pigeonhole: fewer flipped bits
    than blocks → some block is untouched on both sides); approximate
    beyond that. ``max_bucket`` caps degenerate-bucket pair explosion
    (logged, in-chunk pairs only — pass ``None`` for strict exactness).

    Plan (ONE shuffle, no per-bucket Python): rows explode to ``n_blocks``
    (bucket, id, sig) rows where ``bucket = blk << width | block_value``,
    and ``runtime.by_key`` on ``bucket`` co-locates complete buckets in
    ``num_partitions`` parts — parallelism is the partition count (not
    the block count). Inside each part the work runs at the
    DISTINCT-SIGNATURE level: rows collapse to (bucket, sig) groups first,
    candidate enumeration + SWAR-popcount Hamming verify run over sig
    GROUPS (pairs.grouped_pair_indices over the per-bucket group counts),
    and only the qualifying group pairs expand to id pairs — output-sized
    work. On duplicate-heavy corpora (exact copies, few distinct hashes)
    this is the difference between O(distinct²) and O(n²) candidates: the
    naive row-level plan measured 10+ min at 10⁵ images over 768 distinct
    aHashes; this plan runs in seconds on identical input. Identical-sig
    pairs (Hamming 0) expand once, from the block-0 bucket.

    ``group_col`` (optional, int64) BLOCKS the search: pairs are only
    sought within the same group (dedup within a tile / language /
    domain — the standard curation blocking pattern). The group id packs
    ABOVE the block bits of the bucket key, so pigeonhole exactness,
    bucket capping, and the first-matching-block rule all hold per group
    and cross-group hash collisions are structurally impossible.

    A pair is emitted only by its FIRST matching block (lowest equal
    block), so output pairs are globally unique with NO second dedup
    shuffle. ``max_bucket`` caps the number of distinct sig-groups paired
    per bucket AND the per-group expansion of identical-sig pairs; a pair
    the cap skips in its first matching block is lost even if a later
    block's bucket would have paired it — cap events are logged, never
    silent."""
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    if max_hamming >= n_blocks:
        import warnings

        warnings.warn(
            f"hamming LSH is approximate for max_hamming={max_hamming} >= "
            f"n_blocks={n_blocks}", stacklevel=2,
        )
    from georay.ops.pairs import (
        grouped_pair_indices, popcount64, subset_pair_indices,
    )

    width = 64 // n_blocks
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "hamming": pa.array([], pa.int64())})

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        sh = t[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        grp = (t[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
               if group_col is not None else None)
        mask = np.uint64((1 << width) - 1)
        out_ids, out_bucket, out_sig = [], [], []
        for b in range(n_blocks):
            val = ((sh >> np.uint64(b * width)) & mask).astype(np.int64)
            out_ids.append(ids)
            blk_key = (grp * n_blocks + b) if grp is not None else b
            out_bucket.append((blk_key << width) | val)
            out_sig.append(sh.astype(np.int64))
        return pa.table(
            {
                "id": np.concatenate(out_ids),
                "bucket": np.concatenate(out_bucket),
                "sig": np.concatenate(out_sig),
            }
        )

    def pairs(g: pa.Table) -> pa.Table:
        ids = g["id"].to_numpy(zero_copy_only=False)
        if ids.size < 2:
            return empty
        bucket = g["bucket"].to_numpy(zero_copy_only=False)
        sig = g["sig"].to_numpy(zero_copy_only=False).astype(np.uint64)
        label = "(hash blocks)"
        # collapse rows to distinct (bucket, sig) groups; rows ordered by
        # (group, id) via dense ranks + ONE introsort — stable/radix sorts
        # intermittently run 10-40x slower on this VM (CLAUDE.md)
        ub, br = np.unique(bucket, return_inverse=True)
        usig, sr = np.unique(sig, return_inverse=True)
        combo = br.astype(np.int64) * np.int64(usig.size) + sr
        uc, cr, ccount = np.unique(combo, return_inverse=True,
                                   return_counts=True)
        ui, ir = np.unique(ids, return_inverse=True)
        order = np.argsort(cr * np.int64(ui.size) + ir, kind="quicksort")
        sorted_ids = ids[order].astype(np.int64)
        row_start = np.zeros(uc.size + 1, dtype=np.int64)
        np.cumsum(ccount, out=row_start[1:])
        combo_bucket = (uc // usig.size).astype(np.int64)  # dense bucket rank
        combo_sig = usig[uc % usig.size]
        blk_of_bucket = (
            (ub.view(np.uint64) >> np.uint64(width)).astype(np.int64)
            % n_blocks  # group id (if any) packs above the block index
        )

        out_a, out_b, out_h = [], [], []

        # identical-sig (Hamming 0) pairs: every block agrees, so the
        # first-matching-block rule assigns them to the block-0 bucket
        if max_hamming >= 0:
            intra = np.flatnonzero(
                (blk_of_bucket[combo_bucket] == 0) & (ccount >= 2)
            )
            if intra.size:
                ia0, ib0 = subset_pair_indices(
                    ccount, row_start[:-1], intra, max_bucket,
                    f"{label}[ham0]", log_prefix=log_prefix,
                )
                out_a.append(sorted_ids[ia0])  # ids ascend within a group
                out_b.append(sorted_ids[ib0])
                out_h.append(np.zeros(ia0.size, dtype=np.int64))

        # cross-sig candidates at the sig-GROUP level: per bucket, pair its
        # distinct sig-groups (uc is combo-sorted → groups of one bucket
        # are consecutive)
        gsizes = np.bincount(combo_bucket, minlength=ub.size).astype(np.int64)
        cia, cib = grouped_pair_indices(
            gsizes, max_bucket, label, log_prefix=log_prefix
        )
        if cia.size:
            x = combo_sig[cia] ^ combo_sig[cib]
            ham = popcount64(x)
            # first-matching-block dedup: this pair's bucket block index
            # must be the LOWEST block where the two hashes agree
            blk = blk_of_bucket[combo_bucket[cia]]
            mask = np.uint64((1 << width) - 1)
            dup = np.zeros(x.size, dtype=bool)
            for k in range(n_blocks - 1):
                dup |= (k < blk) & (((x >> np.uint64(k * width)) & mask) == 0)
            keep = (ham <= max_hamming) & ~dup
            cia, cib, ham = cia[keep], cib[keep], ham[keep]
            if cia.size:
                # expand qualifying group pairs to id pairs (output-sized)
                ma, mb = ccount[cia], ccount[cib]
                tot = ma * mb
                offs = np.zeros(cia.size, dtype=np.int64)
                np.cumsum(tot[:-1], out=offs[1:])
                pidx = np.repeat(np.arange(cia.size, dtype=np.int64), tot)
                r = np.arange(int(tot.sum()), dtype=np.int64) - offs[pidx]
                A = sorted_ids[row_start[cia][pidx] + r // mb[pidx]]
                B = sorted_ids[row_start[cib][pidx] + r % mb[pidx]]
                out_a.append(np.minimum(A, B))
                out_b.append(np.maximum(A, B))
                out_h.append(ham[pidx])

        if not out_a:
            return empty
        return pa.table(
            {"id_a": pa.array(np.concatenate(out_a)),
             "id_b": pa.array(np.concatenate(out_b)),
             "hamming": pa.array(np.concatenate(out_h))}
        )

    return by_key(sig_ds.map_batches(explode, batch_format="pyarrow"),
                  "bucket", pairs, empty.schema,
                  num_partitions=num_partitions)

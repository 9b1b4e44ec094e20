"""Text/near-dup/similarity operator tests vs in-memory oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_table():
    import pyarrow.parquet as pq

    return pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text", "lang"]
    )


def _brute_jaccard_pairs(table, k=5, threshold=0.7):
    ids = table["doc_id"].to_numpy()
    texts = table["text"].to_pylist()
    sh = [set(s[i : i + k] for i in range(len(s) - k + 1)) for s in texts]
    out = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            inter = len(sh[i] & sh[j])
            if inter and inter / (len(sh[i]) + len(sh[j]) - inter) >= threshold:
                out.add((int(min(ids[i], ids[j])), int(max(ids[i], ids[j]))))
    return out


def test_minhash_lsh_finds_all_pairs(ray_session, docs_table):
    import ray

    from georay.ops import minhash as mh

    ds = ray.data.from_arrow(docs_table.select(["doc_id", "text"])).repartition(4)
    got = mh.near_dup_pairs(
        ds, docs_table, n_hashes=64, n_bands=16, shingle_k=5, threshold=0.7
    ).to_pandas()
    want = _brute_jaccard_pairs(docs_table)
    assert set(zip(got["id_a"], got["id_b"])) == want
    assert (got["jaccard"] >= 0.7).all()


def test_minhash_shuffle_verify_matches_broadcast(ray_session, docs_table):
    import ray

    from georay.ops import minhash as mh

    ds = ray.data.from_arrow(docs_table.select(["doc_id", "text"])).repartition(4)
    got = mh.near_dup_pairs(
        ds, n_hashes=64, n_bands=16, shingle_k=5, threshold=0.7,
        verify="shuffle", num_partitions=4,
    ).to_pandas()
    want = _brute_jaccard_pairs(docs_table)
    assert set(zip(got["id_a"], got["id_b"])) == want
    assert (got["jaccard"] >= 0.7).all()


def test_minhash_validates_band_divisibility(ray_session, docs_table):
    import ray

    from georay.ops import minhash as mh

    ds = ray.data.from_arrow(docs_table.select(["doc_id", "text"]))
    with pytest.raises(ValueError, match="divisible"):
        mh.near_dup_pairs(ds, docs_table, n_hashes=64, n_bands=7)
    with pytest.raises(ValueError, match="docs_table"):
        mh.near_dup_pairs(ds, None, verify="broadcast")


def test_lsh_bucket_cap_bounds_pair_explosion(ray_session):
    # adversarial corpus: 64 identical docs -> every band collides into ONE
    # bucket; uncapped that is C(64,2)=2016 pairs per band on one reducer
    import ray

    from georay.ops import minhash as mh

    n = 64
    t = pa.table(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": ["the same exact document body repeated verbatim"] * n,
        }
    )
    ds = ray.data.from_arrow(t).repartition(2)
    sigs = mh.minhash_signatures(ds, n_hashes=16, shingle_k=5)
    capped = mh.lsh_candidate_pairs(
        sigs, n_bands=4, rows_per_band=4, max_bucket=8
    ).to_pandas()
    # 8 chunks of 8 docs -> 8*C(8,2)=224 distinct in-chunk pairs max
    assert len(capped) <= 8 * 28
    uncapped = mh.lsh_candidate_pairs(
        sigs, n_bands=4, rows_per_band=4, max_bucket=None
    ).to_pandas()
    assert len(uncapped) == n * (n - 1) // 2


def test_simhash_deterministic_across_runs(ray_session, docs_table):
    import ray

    from georay.ops import minhash as mh

    ds = ray.data.from_arrow(docs_table.select(["doc_id", "text"])).repartition(3)
    a = mh.simhash_signatures(ds).to_pandas().sort_values("doc_id")
    b = mh.simhash_signatures(ds).to_pandas().sort_values("doc_id")
    assert np.array_equal(a["simhash"].to_numpy(), b["simhash"].to_numpy())
    # near-identical docs have small hamming distance
    pairs = mh.simhash_near_dup_pairs(ds, max_hamming=6).to_pandas()
    want = _brute_jaccard_pairs(docs_table, threshold=0.9)
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    # every true near-dup pair is found (high-jaccard -> low hamming)
    assert want <= got


def test_fingerprint_matches_text_grouping(docs_table):
    from georay.ops.text import fingerprint64

    texts = np.array(docs_table["text"].to_pylist())
    fp = fingerprint64(texts, prefix=40)
    by_fp = {}
    by_txt = {}
    for i, (f, s) in enumerate(zip(fp, texts)):
        by_fp.setdefault(int(f), set()).add(i)
        by_txt.setdefault(s[:40], set()).add(i)
    assert sorted(map(sorted, by_fp.values())) == sorted(map(sorted, by_txt.values()))


def test_langid_on_real_language_samples(ray_session):
    # the testdata 'lang' column is a synthetic label on English word-soup;
    # exercise the heuristic on genuinely multilingual text instead
    import ray

    from georay.ops import text as text_ops

    samples = [
        ("en", "the quick brown fox jumps over the lazy dog and it was a good day for all of the animals in the forest"),
        ("de", "der schnelle braune fuchs springt über den faulen hund und das ist ein gutes zeichen für die tiere im wald"),
        ("fr", "le renard brun rapide saute par dessus le chien paresseux et c'est un bon jour pour les animaux dans la forêt"),
        ("es", "el rápido zorro marrón salta sobre el perro perezoso y es un buen día para los animales en el bosque"),
        ("zh", "敏捷的棕色狐狸跳过了懒惰的狗这对森林里的所有动物来说都是美好的一天"),
    ]
    t = pa.table(
        {
            "doc_id": list(range(len(samples))),
            "text": [s for _, s in samples],
        }
    )
    pred = text_ops.langid(ray.data.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert pred["lang_pred"].tolist() == [lang for lang, _ in samples]


def test_quality_scores_sane(ray_session, docs_table):
    import ray

    from georay.ops import text as text_ops

    ds = ray.data.from_arrow(docs_table.select(["doc_id", "text"]))
    q = text_ops.quality(ds).to_pandas()
    assert ((q["quality"] >= 0) & (q["quality"] <= 1)).all()
    assert q["quality"].nunique() > 10  # discriminative, not constant


def test_connected_components_known_graph(ray_session):
    import ray

    from georay.ops import cluster as cluster_ops

    # components: {0,1,2,3} (chain), {10,11} (pair), {20} (singleton), {30,31,32} (triangle)
    nodes = pa.table({"node": np.array([0, 1, 2, 3, 10, 11, 20, 30, 31, 32], np.int64)})
    edges = pa.table(
        {
            "id_a": np.array([0, 1, 2, 10, 30, 31, 30], np.int64),
            "id_b": np.array([1, 2, 3, 11, 31, 32, 32], np.int64),
        }
    )
    want = {0: 0, 1: 0, 2: 0, 3: 0, 10: 10, 11: 10, 20: 20,
            30: 30, 31: 30, 32: 30}
    # broadcast (small-edge) plan AND the distributed label-propagation
    # plan (forced via broadcast_edges_max=0) must agree
    for cap in (2_000_000, 0):
        out = cluster_ops.connected_components(
            ray.data.from_arrow(nodes), ray.data.from_arrow(edges),
            num_partitions=2, broadcast_edges_max=cap,
        ).to_pandas().sort_values("node")
        got = dict(zip(out["node"], out["component"]))
        assert got == want, f"cap={cap}"


def test_dedup_clusters_representatives(ray_session, docs_table):
    import ray

    from georay.ops import cluster as cluster_ops
    from georay.ops import minhash as mh

    docs = ray.data.from_arrow(docs_table.select(["doc_id", "text"])).repartition(4)
    pairs = mh.near_dup_pairs(docs, docs_table, n_hashes=64, n_bands=16,
                              shingle_k=5, threshold=0.7)
    out = cluster_ops.dedup_clusters(docs, pairs, num_partitions=2).to_pandas()
    # python oracle: union-find over the brute pairs
    parent = {int(i): int(i) for i in docs_table["doc_id"].to_numpy()}
    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for a, b in _brute_jaccard_pairs(docs_table):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == want
    reps = set(out.loc[out["is_representative"], "doc_id"])
    assert reps == set(want.values())


@pytest.fixture(scope="module")
def emb_table():
    import pyarrow.parquet as pq

    return pq.read_table(
        "/root/testdata/sf0.01/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def test_brute_topk_matches_numpy(ray_session, emb_table):
    import ray

    from georay.ops import similarity as sim

    ids = emb_table["vec_id"].to_numpy()
    mat = sim.emb_matrix(emb_table["embedding"])
    qsel = ids % 25 == 0
    ds = ray.data.from_arrow(emb_table).repartition(4)
    got = sim.brute_topk(ds, ids[qsel], mat[qsel], k=3).to_pandas()
    # numpy oracle
    mn = mat.astype(np.float64)
    mn = mn / np.linalg.norm(mn, axis=1, keepdims=True)
    sims = mn[qsel] @ mn.T
    sims[np.equal.outer(ids[qsel], ids)] = -np.inf
    for r, q in enumerate(ids[qsel]):
        order = np.lexsort((ids, -sims[r]))[:3]
        want = ids[order].tolist()
        have = got[got["query_id"] == q].sort_values("rank")["neighbor_id"].tolist()
        assert have == want, f"query {q}"


def test_ivf_recall_clustered(ray_session):
    # IVF's regime is clustered data (uniform-random high-dim vectors have no
    # bucket structure to exploit): mixture of 20 gaussians, 32-dim
    import ray

    from georay.ops import similarity as sim

    rng = np.random.RandomState(0)
    centers = rng.randn(20, 32) * 4
    mat = np.concatenate(
        [c + rng.randn(50, 32) * 0.5 for c in centers]
    ).astype(np.float32)
    ids = np.arange(mat.shape[0], dtype=np.int64)
    t = pa.table({"vec_id": ids, "embedding": list(mat)})
    qsel = ids % 40 == 0
    ds = ray.data.from_arrow(t).repartition(4)
    brute = sim.brute_topk(ds, ids[qsel], mat[qsel], k=5).to_pandas()
    ivf = sim.ivf_topk(
        ds, ids[qsel], mat[qsel], k=5, n_centroids=20, n_probe=4,
        sample_mat=mat[::3],
    ).to_pandas()
    b = set(zip(brute["query_id"], brute["neighbor_id"]))
    v = set(zip(ivf["query_id"], ivf["neighbor_id"]))
    recall = len(b & v) / len(b)
    assert recall >= 0.9, f"IVF recall {recall}"


def test_ivf_sq8_recall_clustered(ray_session):
    # IVF pruning + SQ8 integer scoring: pruned recall vs the SQ8 brute
    # ranking (apples to apples — both score quantized codes)
    import ray

    from georay.ops import similarity as sim

    rng = np.random.RandomState(1)
    centers = rng.randn(20, 32) * 4
    mat = np.concatenate(
        [c + rng.randn(50, 32) * 0.5 for c in centers]
    ).astype(np.float32)
    ids = np.arange(mat.shape[0], dtype=np.int64)
    t = pa.table({"vec_id": ids, "embedding": list(mat)})
    ds = ray.data.from_arrow(t).repartition(4)
    brute = sim.sq8_topk(ds, query_mask_mod=40, k=5).to_pandas()
    pruned = sim.ivf_sq8_topk(
        ds, query_mask_mod=40, k=5, n_centroids=20, n_probe=4,
        sample_mat=mat[::3],
    ).to_pandas()
    b = set(zip(brute["query_id"], brute["neighbor_id"]))
    v = set(zip(pruned["query_id"], pruned["neighbor_id"]))
    recall = len(b & v) / len(b)
    assert recall >= 0.9, f"IVF+SQ8 recall {recall}"


def test_ivf_sq8_full_probe_equals_sq8(ray_session):
    # n_probe == n_centroids must reproduce the sq8 brute ranking exactly
    # (scores AND ranks) — the same contract ann_ivf has vs ann_topk
    import ray

    from georay.ops import similarity as sim

    rng = np.random.RandomState(2)
    mat = rng.randn(300, 16).astype(np.float32)
    ids = np.arange(300, dtype=np.int64)
    t = pa.table({"vec_id": ids, "embedding": list(mat)})
    ds = ray.data.from_arrow(t).repartition(3)
    brute = sim.sq8_topk(ds, query_mask_mod=30, k=5).to_pandas()
    full = sim.ivf_sq8_topk(
        ds, query_mask_mod=30, k=5, n_centroids=8, n_probe=8,
        sample_mat=mat[::5],
    ).to_pandas()
    cols = ["query_id", "neighbor_id", "score", "rank"]
    a = brute[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = full[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert a.astype(np.int64).equals(b.astype(np.int64))


def test_cosine_pairs_brute_exact(ray_session, emb_table):
    import ray

    from georay.ops import similarity as sim

    ids = emb_table["vec_id"].to_numpy()
    mat = sim.emb_matrix(emb_table["embedding"]).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ mat.T
    ia, ib = np.triu_indices(len(ids), k=1)
    keep = sims[ia, ib] >= 0.45
    want = set(zip(ids[ia[keep]], ids[ib[keep]]))
    ds = ray.data.from_arrow(emb_table).repartition(5)
    got = sim.cosine_pairs_brute(ds, emb_table, threshold=0.45).to_pandas()
    assert set(zip(got["id_a"], got["id_b"])) == want


def test_tfidf_topk_known_corpus(ray_session):
    """Hand-checkable corpus: ties broken by (df ASC, w ASC); rank dense
    1..k per doc; rare terms beat common ones at equal tf."""
    import pandas as pd
    import ray

    from georay.ops import text as text_ops

    corpus = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "apple apple banana common",
                "banana banana cherry common",
                "common common common durian",
            ],
        }
    )
    ds = ray.data.from_pandas(corpus).repartition(2)
    got = (
        text_ops.tfidf_topk(ds, k=2, num_partitions=4)
        .to_pandas()
        .sort_values(["doc_id", "rank"])
        .reset_index(drop=True)
    )
    # df: apple=1 banana=2 cherry=1 common=3 durian=1
    want = pd.DataFrame(
        {
            "doc_id": [1, 1, 2, 2, 3, 3],
            "w": ["apple", "banana", "banana", "cherry", "common", "durian"],
            "tf": [2, 1, 2, 1, 3, 1],
            "df": [1, 2, 2, 1, 3, 1],
            "rank": [1, 2, 1, 2, 1, 2],
        }
    )
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)


def test_tfidf_topk_brute_parity(ray_session, docs_table):
    """Full-corpus parity vs an in-memory pandas oracle at sf0.001."""
    import re

    import pandas as pd
    import ray

    from georay.ops import text as text_ops

    df = docs_table.select(["doc_id", "text"]).to_pandas()
    rows = []
    for did, text in zip(df["doc_id"], df["text"]):
        toks = [w.lower() for w in re.findall(r"[\w']+", text)]
        s = pd.Series(toks).value_counts()
        for w, tf in s.items():
            rows.append((did, w, int(tf)))
    tf = pd.DataFrame(rows, columns=["doc_id", "w", "tf"])
    dfc = tf.groupby("w", as_index=False).size().rename(columns={"size": "df"})
    j = tf.merge(dfc, on="w")
    j = j.sort_values(
        ["doc_id", "tf", "df", "w"], ascending=[True, False, True, True]
    ).reset_index(drop=True)
    j["rank"] = j.groupby("doc_id").cumcount() + 1
    want = j[j["rank"] <= 3].reset_index(drop=True)

    ds = ray.data.from_pandas(df).repartition(4)
    got = (
        text_ops.tfidf_topk(ds, k=3)
        .to_pandas()
        .sort_values(["doc_id", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["doc_id", "w", "tf", "df", "rank"]].astype(
            {"tf": "int64", "df": "int64", "rank": "int64"}
        ),
        want[["doc_id", "w", "tf", "df", "rank"]].astype(
            {"tf": "int64", "df": "int64", "rank": "int64"}
        ),
    )


def _kmeans_replica(ids, emb, k, iters, scale=1 << 20):
    """Single-process mirror of ops.similarity.kmeans_lloyd."""
    xi = np.floor(emb.astype(np.float64) * scale).astype(np.int64)
    order = np.argsort(ids, kind="stable")[:k]
    cent = xi[order].astype(np.float64)
    for _ in range(iters):
        D = ((xi[:, None, :].astype(np.float64) - cent[None, :, :]) ** 2).sum(-1)
        a = D.argmin(1)
        for j in range(k):
            m = a == j
            if m.any():
                cent[j] = xi[m].sum(0) / m.sum()
    D = ((xi[:, None, :].astype(np.float64) - cent[None, :, :]) ** 2).sum(-1)
    return D.argmin(1)


def test_kmeans_partition_invariant(ray_session, emb_table):
    """Identical assignment whatever the block layout (the integer-partials
    determinism contract)."""
    import pandas as pd
    import ray

    from georay.ops import similarity as sim

    outs = []
    for parts in (1, 7):
        ds = ray.data.from_arrow(emb_table).repartition(parts)
        out = (
            sim.kmeans_lloyd(ds, k=5, iters=2)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    ids = emb_table["vec_id"].to_numpy()
    emb = sim.emb_matrix(emb_table["embedding"])
    want = _kmeans_replica(ids, emb, k=5, iters=2)
    got = outs[0].set_index("vec_id")["cluster"]
    assert (got.loc[ids].to_numpy() == want).all()


def test_kmeans_empty_cluster_keeps_centroid(ray_session):
    """Two identical init points: one cluster empties after the first
    assignment; the engine must keep its centroid (no NaN/crash) and match
    the replica."""
    import ray

    from georay.ops import similarity as sim

    rng = np.random.RandomState(3)
    emb = np.vstack(
        [
            np.full((1, 8), 0.5, np.float32),
            np.full((1, 8), 0.5, np.float32),  # duplicate init point
            rng.normal(-0.5, 0.01, (20, 8)).astype(np.float32),
        ]
    )
    ids = np.arange(emb.shape[0], dtype=np.int64)
    t = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(emb.reshape(-1)), 8
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    out = (
        sim.kmeans_lloyd(ds, k=3, iters=3)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    want = _kmeans_replica(ids, emb, k=3, iters=3)
    assert (out["cluster"].to_numpy() == want).all()
    assert out["cluster"].nunique() >= 2


# --------------------------------------------------------- n-gram span dedup


def _brute_span_stats(docs: list[tuple[int, str]], k: int) -> pd.DataFrame:
    from collections import Counter

    grams = []
    for did, text in docs:
        toks = text.split(" ")
        for i in range(max(len(toks) - k + 1, 0)):
            grams.append((did, " ".join(toks[i : i + k])))
    occ = Counter(g for _, g in grams)
    rows = {}
    for did, g in grams:
        n, d = rows.get(did, (0, 0))
        rows[did] = (n + 1, d + (1 if occ[g] >= 2 else 0))
    return pd.DataFrame(
        [(did, n, d) for did, (n, d) in sorted(rows.items())],
        columns=["doc_id", "n_spans", "n_dup_spans"],
    )


def test_ngram_span_stats_vs_brute(ray_session):
    import ray.data

    from georay.ops.text import ngram_span_stats

    rng = np.random.RandomState(19)
    vocab = [f"w{i}" for i in range(40)]
    docs = []
    for did in range(60):
        toks = [vocab[j] for j in rng.randint(0, 40, size=rng.randint(2, 30))]
        docs.append((did, " ".join(toks)))
    # plant an exact 12-token span shared by three docs, and a doc-internal
    # repeat of a 4-gram (k=4 run below must count within-doc repeats)
    span = " ".join(vocab[7:19])
    docs[5] = (5, docs[5][1] + " " + span)
    docs[9] = (9, span + " " + docs[9][1])
    docs[33] = (33, span)
    docs[40] = (40, "a b c d x a b c d")
    tab = pa.table(
        {"doc_id": np.array([d for d, _ in docs], dtype=np.int64),
         "text": [t for _, t in docs]}
    )
    for k in (4, 8):
        want = _brute_span_stats(docs, k)
        got = (
            ngram_span_stats(
                ray.data.from_arrow(tab).repartition(5), k=k,
                num_partitions=3,
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=True)


def test_setsim_join_vs_brute(ray_session):
    """Random small-vocab corpus (dense similarity — the prefix filter's
    worst case) + planted near-identical pair: exact parity with a brute
    all-pairs token-set Jaccard, at two thresholds and with the
    length-filter both live and trivial."""
    import itertools
    import re

    import ray

    from georay.ops.setsim import setsim_join

    rng = np.random.RandomState(23)
    vocab = [f"w{i}" for i in range(25)]
    docs = []
    for did in range(80):
        toks = [vocab[j] for j in rng.randint(0, 25, size=rng.randint(1, 20))]
        docs.append((did, " ".join(toks)))
    docs.append((900, "alpha beta gamma delta epsilon"))
    docs.append((901, "alpha beta gamma delta epsilon zeta"))  # J = 5/6
    docs.append((902, ""))  # empty token set: must never pair
    tab = pa.table(
        {"doc_id": np.array([d for d, _ in docs], dtype=np.int64),
         "text": [t for _, t in docs]}
    )
    word_re = re.compile(r"[\w']+", re.UNICODE)
    sets = {d: frozenset(word_re.findall(t.lower())) for d, t in docs}

    for num, den in [(4, 5), (1, 2)]:
        want_rows = []
        for a, b in itertools.combinations(sorted(sets), 2):
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and inter * den >= num * union:
                want_rows.append((a, b, inter, union, inter / union))
        want = pd.DataFrame(
            want_rows, columns=["id_a", "id_b", "n_inter", "n_union", "jaccard"]
        )
        got = (
            setsim_join(
                ray.data.from_arrow(tab).repartition(4), num=num, den=den,
                num_partitions=3, max_bucket=None,
            )
            .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        )
        assert ((got["id_a"] == 900) & (got["id_b"] == 901)).any() or num > 4
        pd.testing.assert_frame_equal(
            got.astype({"id_a": "int64", "id_b": "int64", "n_inter": "int64",
                        "n_union": "int64"}),
            want.astype({"id_a": "int64", "id_b": "int64", "n_inter": "int64",
                         "n_union": "int64"}),
        )


def test_setsim_join_big_vocab_join_path(ray_session):
    """Force the hash-join document-frequency path (broadcast_vocab_max=0)
    and assert it matches the broadcast path bit-for-bit."""
    import ray

    from georay.ops.setsim import setsim_join

    rng = np.random.RandomState(31)
    vocab = [f"tok{i}" for i in range(60)]
    docs = [
        (did, " ".join(vocab[j] for j in rng.randint(0, 60,
                                                     size=rng.randint(3, 15))))
        for did in range(50)
    ]
    # plant qualifying pairs (the random corpus alone may have none, and an
    # all-empty result exercises nothing)
    docs += [(700, "red green blue cyan"), (701, "red green blue magenta"),
             (702, "red green blue cyan yellow")]
    tab = pa.table(
        {"doc_id": np.array([d for d, _ in docs], dtype=np.int64),
         "text": [t for _, t in docs]}
    )

    def run(bmax):
        return (
            setsim_join(
                ray.data.from_arrow(tab).repartition(3), num=1, den=2,
                num_partitions=2, max_bucket=None,
                broadcast_vocab_max=bmax,
            )
            .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        )

    a, b = run(2_000_000), run(0)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_cooccur_topk_vs_brute(ray_session):
    """Lift ranking vs an itertools brute force; within-doc duplicate
    tokens collapse (DISTINCT pairs), tie-break totalizes equal lifts."""
    import itertools
    import re

    import ray

    from georay.ops.text import cooccur_topk

    rng = np.random.RandomState(41)
    vocab = [f"w{i}" for i in range(12)]
    docs = [
        (did, " ".join(vocab[j] for j in rng.randint(0, 12,
                                                     size=rng.randint(2, 9))))
        for did in range(40)
    ]
    tab = pa.table(
        {"doc_id": np.array([d for d, _ in docs], dtype=np.int64),
         "text": [t for _, t in docs]}
    )
    word_re = re.compile(r"[\w']+", re.UNICODE)
    sets = {d: sorted(set(word_re.findall(t.lower()))) for d, t in docs}
    n_docs = len(docs)
    df_cnt: dict[str, int] = {}
    for s in sets.values():
        for w in s:
            df_cnt[w] = df_cnt.get(w, 0) + 1
    pair_cnt: dict[tuple, int] = {}
    for s in sets.values():
        for a, b in itertools.combinations(s, 2):
            pair_cnt[(a, b)] = pair_cnt.get((a, b), 0) + 1
    rows = [
        (a, b, n, df_cnt[a], df_cnt[b],
         np.float64(n) * np.float64(n_docs) / (df_cnt[a] * df_cnt[b]))
        for (a, b), n in pair_cnt.items()
    ]
    want = (
        pd.DataFrame(rows, columns=["w_a", "w_b", "n_ab", "n_a", "n_b", "lift"])
        .sort_values(["lift", "w_a", "w_b"], ascending=[False, True, True])
        .head(10).reset_index(drop=True)
    )
    got = (
        cooccur_topk(
            ray.data.from_arrow(tab).repartition(4), k=10,
            num_partitions=2,
        )
        .to_pandas().reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"n_ab": "int64", "n_a": "int64", "n_b": "int64"}), want
    )


def test_cooccur_topk_join_path_parity(ray_session):
    """broadcast_vocab_max=0 forces the df hash joins; result must equal
    the broadcast path bit-for-bit."""
    import ray

    from georay.ops.text import cooccur_topk

    rng = np.random.RandomState(43)
    vocab = [f"t{i}" for i in range(15)]
    docs = [
        (did, " ".join(vocab[j] for j in rng.randint(0, 15,
                                                     size=rng.randint(2, 8))))
        for did in range(30)
    ]
    tab = pa.table(
        {"doc_id": np.array([d for d, _ in docs], dtype=np.int64),
         "text": [t for _, t in docs]}
    )

    def run(bmax):
        return (
            cooccur_topk(
                ray.data.from_arrow(tab).repartition(3), k=8,
                num_partitions=2,
                broadcast_vocab_max=bmax,
            ).to_pandas().reset_index(drop=True)
        )

    a, b = run(2_000_000), run(0)
    assert len(a) == 8
    pd.testing.assert_frame_equal(a, b)


def test_sq8_topk_matches_brute_int_ranking(ray_session, emb_table):
    """SQ8 ranking vs a numpy replica (same quantization expression),
    including the degenerate constant-dimension path."""
    import ray

    from georay.ops.similarity import emb_matrix, sq8_quantize, sq8_topk

    t = emb_table
    m = emb_matrix(t["embedding"]).astype(np.float32)
    m[:, 3] = 1.25  # constant dim → span 0 → quantizes to 0 both sides
    ids = t["vec_id"].to_numpy()
    t2 = pa.table(
        {"vec_id": ids,
         "embedding": pa.array(list(m), pa.list_(pa.float32()))}
    )
    got = (
        sq8_topk(ray.data.from_arrow(t2).repartition(4),
                 query_mask_mod=10, k=3)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    mn, mx = m.min(axis=0), m.max(axis=0)
    codes = sq8_quantize(m, mn, mx)
    rows = []
    for qi in np.flatnonzero(ids % 10 == 0):
        scores = codes[qi] @ codes.T
        order = sorted(
            (int(i) for i in range(ids.size) if ids[i] != ids[qi]),
            key=lambda i: (-int(scores[i]), int(ids[i])),
        )[:3]
        rows += [
            (int(ids[qi]), int(ids[i]), int(scores[i]), r + 1)
            for r, i in enumerate(order)
        ]
    want = pd.DataFrame(
        rows, columns=["query_id", "neighbor_id", "score", "rank"]
    ).sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


def test_decontaminate_vs_brute(ray_session):
    """Brute-force parity: per train doc, total k-grams and grams present
    in the benchmark gram set (string-level ground truth vs the hashed
    distributed plan), including docs with zero contamination and docs
    shorter than k (absent from both)."""
    import ray.data

    from georay.ops.text import decontaminate

    rng = np.random.RandomState(23)
    vocab = [f"w{i}" for i in range(30)]
    docs = []
    for did in range(80):
        toks = [vocab[j] for j in rng.randint(0, 30, size=rng.randint(2, 25))]
        docs.append((did, " ".join(toks)))
    # plant a 6-token benchmark span inside two train docs
    span = " ".join(vocab[3:9])
    docs[7] = (7, docs[7][1] + " " + span)          # bench (7 % 7 == 0)
    docs[12] = (12, span + " " + docs[12][1])       # train, contaminated
    docs[19] = (19, "x " + span)                    # train, contaminated
    k = 4
    bench_ids = {d for d, _ in docs if d % 7 == 0}

    def grams(text):
        ts = text.split(" ")
        return [" ".join(ts[i:i + k]) for i in range(len(ts) - k + 1)]

    bench_set = {g for d, t in docs if d in bench_ids for g in grams(t)}
    want = {}
    for d, t in docs:
        if d in bench_ids:
            continue
        gs = grams(t)
        if gs:
            want[d] = (len(gs), sum(g in bench_set for g in gs))

    tab = pa.table(
        {"doc_id": np.array([d for d, _ in docs], dtype=np.int64),
         "text": [t for _, t in docs]}
    )
    ds = ray.data.from_arrow(tab).repartition(5)

    def keep(pred):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(pred(ids)))
        return fn

    train = ds.map_batches(keep(lambda i: i % 7 != 0), batch_format="pyarrow")
    bench = ds.map_batches(keep(lambda i: i % 7 == 0), batch_format="pyarrow")
    got = (
        decontaminate(train, bench, k=k, num_partitions=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert len(got) == len(want)
    for _, row in got.iterrows():
        assert want[int(row.doc_id)] == (int(row.n_grams), int(row.n_contam))
    assert got["n_contam"].sum() >= 2 * (6 - k + 1)  # planted spans found


def test_pq_topk_recall_and_brute_parity(ray_session):
    """PQ-ADC ranking on clustered data: (a) the pipeline's PQ scores
    must equal a numpy replica of the same quantize→assign→LUT math
    (plan-independence), and (b) every PQ neighbor must land inside the
    query's cluster and inside SQ8-brute's top-cluster-size candidates —
    the honest contract for a quantizer that collapses a tight cluster
    onto few codewords (exact top-5 order within 40 near-identical
    same-cluster points is unrecoverable by design)."""
    import ray

    from georay.ops import similarity as sim
    from georay.ops.similarity import emb_matrix, sq8_quantize  # noqa: F401

    rng = np.random.RandomState(7)
    centers = rng.randn(6, 16).astype(np.float32) * 8
    mat = np.vstack([
        centers[i % 6] + rng.randn(16).astype(np.float32) * 0.3
        for i in range(240)
    ]).astype(np.float32)
    ids = np.arange(240, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table({"vec_id": ids, "embedding": list(mat)})
    ).repartition(4)
    m_sub, n_cw, k = 4, 12, 5
    got = sim.pq_topk(ds, m_subspaces=m_sub, n_codewords=n_cw,
                      query_mask_mod=24, k=k).to_pandas()

    # numpy replica
    mn, mx = mat.min(axis=0), mat.max(axis=0)
    codes = sq8_quantize(mat, mn, mx)
    d_sub = 16 // m_sub
    cb = codes[:n_cw].reshape(n_cw, m_sub, d_sub)
    cs = codes.reshape(240, m_sub, d_sub)
    assign = np.stack([
        np.argmin(((cs[:, s, None, :] - cb[None, :, s, :]) ** 2).sum(-1), 1)
        for s in range(m_sub)
    ], axis=1)
    recon = np.stack([cb[assign[:, s], s, :] for s in range(m_sub)], axis=1)
    q_mask = ids % 24 == 0
    for q in ids[q_mask]:
        sc = (cs[q][None] * recon).sum(axis=(1, 2))
        sc[q] = -1
        order = np.lexsort((ids, -sc))[:k]
        sub = got[got.query_id == q].sort_values("rank")
        assert list(sub.neighbor_id) == [int(ids[j]) for j in order]
        assert list(sub.score) == [int(sc[j]) for j in order]

    cluster_size = 240 // 6
    brute = sim.sq8_topk(ds, query_mask_mod=24, k=cluster_size).to_pandas()
    b = set(zip(brute["query_id"], brute["neighbor_id"]))
    for _, r in got.iterrows():
        assert int(r.neighbor_id) % 6 == int(r.query_id) % 6  # same cluster
        assert (r.query_id, r.neighbor_id) in b  # inside SQ8 top-40


def test_ivf_pq_pruned_recall(ray_session):
    """Pruned IVF×PQ must (a) equal full-probe exactly when n_probe ==
    n_centroids (vs pq_topk) and (b) keep recall ≥ 0.9 vs the full PQ
    ranking when probing 2 of 6 clusters on well-separated data (pruning
    is the only approximation on top of PQ)."""
    import ray

    from georay.ops import similarity as sim

    rng = np.random.RandomState(11)
    centers = rng.randn(6, 16).astype(np.float32) * 8
    mat = np.vstack([
        centers[i % 6] + rng.randn(16).astype(np.float32) * 0.3
        for i in range(240)
    ]).astype(np.float32)
    ids = np.arange(240, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table({"vec_id": ids, "embedding": list(mat)})
    ).repartition(4)
    kw = dict(m_subspaces=4, n_codewords=12, query_mask_mod=24, k=5)
    full_pq = sim.pq_topk(ds, **kw).to_pandas()
    full_probe = sim.ivf_pq_topk(
        ds, n_centroids=6, n_probe=6, sample_mat=mat[::5], **kw
    ).to_pandas()
    cols = ["query_id", "neighbor_id", "score", "rank"]
    a = full_pq[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = full_probe[cols].sort_values(
        ["query_id", "rank"]).reset_index(drop=True)
    assert a.astype(np.int64).equals(b.astype(np.int64))

    pruned = sim.ivf_pq_topk(
        ds, n_centroids=6, n_probe=2, sample_mat=mat[::5], **kw
    ).to_pandas()
    fb = set(zip(full_pq["query_id"], full_pq["neighbor_id"]))
    pb = set(zip(pruned["query_id"], pruned["neighbor_id"]))
    assert len(fb & pb) / len(fb) >= 0.9

"""Round-5 additions: ADVICE hazard guards, persisted vector index,
real multimodal containers, log-round connected components."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ---------------------------------------------------------------- guards

def test_running_stats_rejects_ns_without_scale(ray_session):
    """datetime64[ns] ts with the default ts_scale_us=1 must raise loudly
    instead of silently producing 1000x-off dt_us (VERDICT r4 weak #1)."""
    import ray

    from georay.ops.window import running_stats

    df = pd.DataFrame(
        {
            "k": np.zeros(10, np.int64),
            "ts": pd.to_datetime(np.arange(10), unit="us"),  # pandas → [ns]
            "oid": np.arange(10, dtype=np.int64),
            "v": np.ones(10),
        }
    )
    t_ns = pa.Table.from_pandas(df, preserve_index=False)
    assert t_ns["ts"].type == pa.timestamp("ns")
    with pytest.raises(Exception, match="multiple of 1000"):
        running_stats(
            ray.data.from_arrow(t_ns), "k", "ts", "oid", "v"
        ).to_pandas()


def test_session_allows_unit_coarsening_on_us(ray_session):
    """ts_scale_us is ticks-per-unit: us columns may be coarsened (e.g. to
    seconds with gaps in seconds — the events_session query shape); only
    the ns-ticks/indivisible-scale combination is the loud-failure case."""
    import ray

    from georay.ops.window import session

    t = pa.table(
        {
            "k": np.zeros(8, np.int64),
            "ts": pa.array(np.arange(8, dtype=np.int64) * 2_000_000,
                           pa.timestamp("us")),
        }
    )
    out = session(ray.data.from_arrow(t), "k", "ts", gap_us=1,
                  ts_scale_us=1_000_000).to_pandas()
    assert len(out) == 8  # every 2s step exceeds the 1-unit (second) gap


def test_resample_gapfill_rejects_out_of_range_bucket(ray_session):
    """Epoch-microsecond ts with minute buckets blows the packed 24-bit
    bucket range → ValueError, not silent key corruption (ADVICE r4)."""
    import ray

    from georay.ops.window import resample_gapfill

    # ~2024 epoch micros: bucket = ts // 60e6 ≈ 2.8e7 > 2^24
    ts = np.int64(1_700_000_000_000_000) + np.arange(10) * 60_000_000
    t = pa.table(
        {
            "k": np.zeros(10, np.int64),
            "ts": pa.array(ts, pa.timestamp("us")),
            "v": np.arange(10, dtype=np.int64),
        }
    )
    with pytest.raises(Exception, match="24-bit"):
        resample_gapfill(
            ray.data.from_arrow(t), "k", "ts", "v", bucket_us=60_000_000
        ).to_pandas()


def test_ks2_by_group_empty_input(ray_session):
    """Empty / fully-filtered input returns an empty frame with the
    documented columns instead of IndexError (ADVICE r4)."""
    import ray

    from georay.ops import sketch as sketch_ops

    t = pa.table(
        {
            "g": pa.array([], pa.string()),
            "v": pa.array([], pa.int64()),
            "f": pa.array([], pa.int64()),
        }
    )
    out = sketch_ops.ks2_by_group(ray.data.from_arrow(t), "g", "v", "f")
    assert len(out) == 0
    assert list(out.columns) == [
        "g", "n1", "n2", "ks_num", "ks_den", "arg_value", "ks"
    ]


# --------------------------------------------------- real media containers

def test_wav_roundtrip_and_chunk_walk():
    """RIFF/WAVE: roundtrip, extra chunks skipped by size (a real chunk
    walk, not a fixed 44-byte offset), malformed input raises."""
    from georay import images

    pcm = (np.arange(500) % 13 * 777 - 4000).astype(np.int16)
    blob = images.encode_wav(pcm, 16000, 1)
    rate, chans, out = images.decode_wav(blob)
    assert (rate, chans) == (16000, 1) and (out == pcm).all()

    # inject a LIST chunk between fmt and data: walker must skip it
    fmt_end = 12 + 8 + 16
    extra = b"LIST" + (7).to_bytes(4, "little") + b"INFOxyz" + b"\x00"
    blob2 = blob[:fmt_end] + extra + blob[fmt_end:]
    rate2, _, out2 = images.decode_wav(blob2)
    assert rate2 == 16000 and (out2 == pcm).all()

    with pytest.raises(ValueError, match="RIFF"):
        images.decode_wav(b"nonsense bytes here")


def test_y4m_roundtrip_and_header_grammar():
    """YUV4MPEG2: roundtrip, W/H tags parsed in any order, non-C444
    colorspace and missing FRAME marker raise."""
    from georay import images

    fr = (np.arange(4 * 6 * 6 * 3) % 256).astype(np.uint8).reshape(4, -1)
    blob = images.encode_y4m(fr, 6, 6)
    w, h, out = images.decode_y4m(blob)
    assert (w, h) == (6, 6) and (out == fr).all()

    # reordered parameter tags still parse
    reordered = blob.replace(b"W6 H6 F25:1 Ip A1:1 C444",
                             b"F25:1 C444 H6 A1:1 Ip W6")
    w2, h2, out2 = images.decode_y4m(reordered)
    assert (w2, h2) == (6, 6) and (out2 == fr).all()

    with pytest.raises(ValueError, match="colorspace"):
        images.decode_y4m(blob.replace(b"C444", b"C420"))
    with pytest.raises(ValueError, match="frame marker"):
        images.decode_y4m(blob.replace(b"FRAME\n", b"FRAMX\n", 1))


def test_video_ops_parse_y4m_rows(ray_session):
    """sample_video_frames / scene_cuts produce identical results for the
    same payloads shipped as rawv vs y4m (container independence)."""
    import ray

    from georay import images
    from georay.ops import images as img_ops

    w, h, nf = 4, 4, 12
    fb = w * h * 3
    frames = ((np.arange(nf)[:, None] * 7 + np.arange(fb)[None, :]) % 256
              ).astype(np.uint8)
    raw = (np.array([w, h, nf], np.uint16).tobytes() + frames.tobytes())
    y4m = images.encode_y4m(frames, w, h)
    t = pa.table({
        "video_id": ["a", "b"],
        "fmt": ["rawv", "y4m"],
        "bytes": pa.array([raw, y4m], pa.binary()),
    })
    ds = ray.data.from_arrow(t)
    fr = img_ops.sample_video_frames(ds, every_n=5).to_pandas()
    a = fr[fr.video_id == "a"].reset_index(drop=True)
    b = fr[fr.video_id == "b"].reset_index(drop=True)
    assert (a["frame_idx"] == b["frame_idx"]).all()
    assert all(x == y for x, y in zip(a["frame_rgb"], b["frame_rgb"]))
    cuts = img_ops.scene_cuts(ds).to_pandas().set_index("video_id")
    assert cuts.loc["a", "n_cuts"] == cuts.loc["b", "n_cuts"]
    assert cuts.loc["a", "n_frames"] == cuts.loc["b", "n_frames"] == nf


# ---------------------------------------------------------------- VecIndex

def _clustered_vectors(n=600, dim=16, k=6, seed=3):
    rng = np.random.RandomState(seed)
    centers = rng.normal(size=(k, dim)) * 5
    pts = centers[np.arange(n) % k] + rng.normal(size=(n, dim)) * 0.3
    return pts.astype(np.float32)


def _emb_table(mat):
    return pa.table({
        "vec_id": np.arange(mat.shape[0], dtype=np.int64),
        "embedding": pa.array(list(mat), pa.list_(pa.float32())),
    })


def test_vecindex_full_probe_matches_inflight(ray_session, tmp_path):
    """build → save → open → query at full probe is bit-identical to the
    in-flight ivf_sq8_topk with the same sample/mask (VERDICT r4 #2)."""
    import ray

    from georay.ops import similarity as sim
    from georay.vecindex import VecIndex

    mat = _clustered_vectors()
    t = _emb_table(mat)
    ds = ray.data.from_arrow(t).repartition(5)
    sample = mat[::7]

    VecIndex.build(ds, str(tmp_path / "vidx"), sample_mat=sample,
                   n_centroids=8)
    idx = VecIndex(str(tmp_path / "vidx"))
    ids = t["vec_id"].to_numpy()
    mask = ids % 10 == 0
    got = (idx.query_topk(ids[mask], mat[mask], k=5, n_probe=8)
           .to_pandas().sort_values(["query_id", "rank"])
           .reset_index(drop=True))
    want = (sim.ivf_sq8_topk(ds, query_mask_mod=10, k=5, n_centroids=8,
                             n_probe=8, sample_mat=sample)
            .to_pandas().sort_values(["query_id", "rank"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want[got.columns])


def test_vecindex_pq_full_probe_matches_inflight(ray_session, tmp_path):
    """build_pq → open → query at full probe is bit-identical to the
    in-flight ivf_pq_topk given the same codebook rows / sample / mask
    (the persisted FAISS IVF,PQ layout, VERDICT r4 #2)."""
    import ray

    from georay.ops import similarity as sim
    from georay.vecindex import VecIndex

    mat = _clustered_vectors()
    t = _emb_table(mat)
    ds = ray.data.from_arrow(t).repartition(5)
    sample = mat[::7]
    cb_mat = mat[:16]  # ids 0..15 ascending — the rows collect() picks

    VecIndex.build_pq(ds, str(tmp_path / "vidxpq"), sample_mat=sample,
                      cb_mat=cb_mat, n_centroids=8, m_subspaces=8)
    idx = VecIndex(str(tmp_path / "vidxpq"))
    assert idx.kind == "ivf_pq" and idx.count() == mat.shape[0]
    ids = t["vec_id"].to_numpy()
    mask = ids % 10 == 0
    got = (idx.query_topk(ids[mask], mat[mask], k=5, n_probe=8)
           .to_pandas().sort_values(["query_id", "rank"])
           .reset_index(drop=True))
    want = (sim.ivf_pq_topk(ds, m_subspaces=8, n_codewords=16,
                            query_mask_mod=10, k=5, n_centroids=8,
                            n_probe=8, sample_mat=sample)
            .to_pandas().sort_values(["query_id", "rank"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want[got.columns])


def test_vecindex_pruned_recall_and_pruned_read(ray_session, tmp_path):
    """n_probe < n_centroids on clustered data: recall ≥ 0.9 vs full
    probe, and the pruned query opens strictly fewer partition files."""
    import ray

    from georay.vecindex import VecIndex

    # same geometry as test_ivf_sq8_recall_clustered (20 tight clusters,
    # probe 4/20) — the recall contract the in-flight pipeline carries
    rng = np.random.RandomState(1)
    centers = rng.randn(20, 32) * 4
    mat = np.concatenate(
        [c + rng.randn(50, 32) * 0.5 for c in centers]
    ).astype(np.float32)
    ds = ray.data.from_arrow(_emb_table(mat)).repartition(4)
    root = str(tmp_path / "vidx")
    idx = VecIndex.build(ds, root, sample_mat=mat[::3], n_centroids=20)
    ids = np.arange(mat.shape[0], dtype=np.int64)
    mask = ids % 40 == 0

    full = idx.query_topk(ids[mask], mat[mask], k=5, n_probe=20).to_pandas()
    pruned = idx.query_topk(ids[mask], mat[mask], k=5, n_probe=4).to_pandas()
    fset = set(map(tuple, full[["query_id", "neighbor_id"]].to_numpy()))
    pset = set(map(tuple, pruned[["query_id", "neighbor_id"]].to_numpy()))
    assert len(pset & fset) / len(fset) >= 0.9
    probe1 = idx._files_for_buckets({int(idx.buckets()[0])})
    assert 0 < len(probe1) < len(idx.buckets()) or len(idx.buckets()) == 1


def test_vecindex_resume_skips_committed(ray_session, tmp_path):
    """A re-build with resume=True over an already-complete index writes
    nothing new and the index still answers identically (checkpointed
    write_partitioned parity with CellIndex)."""
    import ray

    from georay.vecindex import VecIndex

    mat = _clustered_vectors(n=200)
    ds = ray.data.from_arrow(_emb_table(mat)).repartition(3)
    root = str(tmp_path / "vidx")
    idx1 = VecIndex.build(ds, root, sample_mat=mat[::5], n_centroids=4)
    n1 = idx1.count()
    import os
    mtimes = {f: os.path.getmtime(os.path.join(root, f))
              for f in os.listdir(root) if f.endswith(".parquet")}
    idx2 = VecIndex.build(ds, root, sample_mat=mat[::5], n_centroids=4,
                          resume=True)
    assert idx2.count() == n1 == 200
    for f, m in mtimes.items():
        assert os.path.getmtime(os.path.join(root, f)) == m  # untouched


# ------------------------------------------------- verify dual plan parity

def _synth_docs(n=400, seed=11):
    rng = np.random.RandomState(seed)
    vocab = [f"w{i:03d}" for i in range(300)]
    texts = []
    for i in range(n):
        toks = list(rng.choice(vocab, 40, replace=False))
        if i % 7 == 1:  # near-dup of predecessor: share 37 of 40 tokens
            prev = texts[-1].split()
            toks = prev[:37] + list(rng.choice(vocab, 3, replace=False))
        texts.append(" ".join(toks))
    return pa.table({"doc_id": np.arange(n, dtype=np.int64),
                     "text": texts})


@pytest.mark.parametrize("op", ["setsim", "containment"])
def test_setsim_broadcast_and_join_verify_agree(ray_session, op):
    """The verify dual plan's two paths (broadcast lookup vs the 100 TB
    hash-join fallback) must produce identical rows."""
    import ray

    from georay.ops import setsim as setsim_ops

    docs = ray.data.from_arrow(_synth_docs()).repartition(4)

    def run(bmax):
        if op == "setsim":
            r = setsim_ops.setsim_join(docs, 7, 10,
                                       broadcast_docs_max=bmax)
        else:
            r = setsim_ops.containment_join(docs, 9, 10, min_tokens=30,
                                            broadcast_docs_max=bmax)
        return (r.to_pandas().sort_values(["id_a", "id_b"])
                .reset_index(drop=True))

    a = run(10**9)  # broadcast path
    b = run(0)      # join fallback path
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_pagerank_driver_and_distributed_agree(ray_session):
    """PageRank dual plan: the small-graph driver numpy loop must be
    bit-identical to the distributed join plan (same int64 updates)."""
    import ray

    from georay.ops import pagerank as pr

    rng = np.random.RandomState(5)
    src = rng.randint(0, 60, 500).astype(np.int64)
    dst = rng.randint(60, 140, 500).astype(np.int64)
    edges = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))

    a = (pr.pagerank(edges, "src", "dst", iterations=3)
         .to_pandas().sort_values("node").reset_index(drop=True))
    b = (pr.pagerank(edges, "src", "dst", iterations=3,
                     driver_max_edges=0)
         .to_pandas().sort_values("node").reset_index(drop=True))
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_nearest_segment_rejects_big_coords(ray_session):
    """|coord| > 512 breaks the int64 cross-multiplied compare → ValueError
    on the segment table (driver) and the point batches (tasks)."""
    import ray

    from georay.ops.knn import nearest_segment

    seg_ok = pa.table(
        {"sid": [1], "x1": [0], "y1": [0], "x2": [10], "y2": [0]}
    )
    seg_bad = pa.table(
        {"sid": [1], "x1": [0], "y1": [0], "x2": [600], "y2": [0]}
    )
    pts_bad = ray.data.from_arrow(
        pa.table({"pid": [1], "px": [1000], "py": [0]})
    )
    pts_ok = ray.data.from_arrow(
        pa.table({"pid": [1], "px": [5], "py": [3]})
    )
    with pytest.raises(ValueError, match="segment coord"):
        nearest_segment(pts_ok, seg_bad, "pid", "px", "py")
    with pytest.raises(Exception, match="point coord"):
        nearest_segment(pts_bad, seg_ok, "pid", "px", "py").to_pandas()
    out = nearest_segment(pts_ok, seg_ok, "pid", "px", "py").to_pandas()
    # d² = 3² = 9 as the un-reduced rational num/den with den = |v|² = 100
    assert out.loc[0, "d2_num"] / out.loc[0, "d2_den"] == 9.0


def test_cc_pointer_jump_log_rounds(ray_session):
    """VERDICT r4 #6: a length-n chain graph must converge in O(log n)
    distributed rounds (pointer jumping), not O(n) (pure min-label
    propagation needed ~n rounds and would blow max_rounds=50 here)."""
    import math

    import ray.data

    from georay.ops.cluster import connected_components

    n = 64
    nodes = ray.data.from_arrow(
        pa.table({"node": pa.array(list(range(n)), pa.int64())})
    )
    edges = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array(list(range(n - 1)), pa.int64()),
                "id_b": pa.array(list(range(1, n)), pa.int64()),
            }
        )
    )
    rounds: list = []
    out = connected_components(
        nodes, edges, num_partitions=2, broadcast_edges_max=0,
        round_counter=rounds,
    ).to_pandas()
    assert dict(zip(out["node"], out["component"])) == {i: 0 for i in range(n)}
    # log2(64)=6; +3 slack for the warmup round and the fixpoint-detect round
    assert len(rounds) <= math.ceil(math.log2(n)) + 3, rounds


def test_adaptive_partitions_semantics(ray_session):
    """VERDICT r4 #4: join call sites default to ~cluster CPUs; the count
    tracks the cluster (a hard cap would serialize multi-node shuffles)
    and a floor of 4 guards tiny clusters."""
    import ray

    from georay.runtime import adaptive_partitions

    cpus = int(ray.cluster_resources().get("CPU", 0))
    assert cpus >= 1
    assert adaptive_partitions() == max(4, cpus)


# ----------------------------------------------- r5 point-pattern queries

SF1K = "/root/testdata/sf0.001"


def test_tile_sen_slope_matches_bruteforce(ray_session):
    """q_tile_sen_slope vs an independent pandas reimplementation from the
    raw parquet: same tile hashing, TRUNCATING fixed-point division
    (DuckDB `//` semantics) and 2x-median — the engine's dense-pivot
    vectorization must not change the math."""
    import pandas as pd
    import pyarrow.parquet as pq

    from georay.ops.spatial import HASH_LAT, HASH_LON
    from georay.queries import SEN_SCALE, q_tile_sen_slope

    got = q_tile_sen_slope(SF1K).reset_index(drop=True)

    ev = pq.read_table(f"{SF1K}/events.parquet",
                       columns=["event_id", "ts"]).to_pandas()
    eid = ev["event_id"].to_numpy().astype(np.int64)
    us = ev["ts"].astype("int64").to_numpy()  # us-unit fixture column
    tile = (((eid * HASH_LON) % 360000) // 11250) * 32 + (
        (eid * HASH_LAT) % 180000) // 5625
    week = us // (7 * 86_400_000_000)
    cnt = (
        pd.DataFrame({"tile": tile, "week": week})
        .groupby(["tile", "week"], as_index=False).size()
    )
    rows = []
    for t, g in cnt.groupby("tile"):
        w = g["week"].to_numpy()
        n = g["size"].to_numpy().astype(np.int64)
        slopes = []
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                num = int(n[j] - n[i]) * SEN_SCALE
                den = int(w[j] - w[i])
                q = abs(num) // den * (1 if num >= 0 else -1)
                slopes.append(q)
        if not slopes:
            continue
        slopes.sort()
        m = len(slopes)
        rows.append((t, m, slopes[(m - 1) // 2] + slopes[m // 2]))
    want = pd.DataFrame(rows, columns=["tile", "n_pairs", "sen2"])
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64"))


def test_lisa_sums_to_global_moran(ray_session):
    """LISA decomposition identity: sum_i I_i == global Moran's I x W
    (queen weights, occupied cells) — ties the new local query to the
    already-oracle-verified global one."""
    from georay.queries import q_lisa_clusters, q_moran_i

    lisa = q_lisa_clusters(SF1K)
    glob = q_moran_i(SF1K)
    w = float(glob["w_pairs"].iloc[0])
    assert lisa["nn"].sum() == glob["w_pairs"].iloc[0]  # each pair counted once per side
    assert abs(lisa["lisa"].sum() - float(glob["moran_i"].iloc[0]) * w) < 1e-6 * w
    assert set(lisa["quad"]) <= {"HH", "LL", "HL", "LH"}


def test_quadrat_csr_exact_ints(ray_session):
    """chi2 numerator recomputed independently with exact Python ints from
    the raw parquet (empty quadrats included) must match the engine's
    float output bit-for-bit."""
    import pyarrow.parquet as pq

    from georay import codec
    from georay.ops.spatial import synth_lonlat
    from georay.queries import BITS_TILE, q_quadrat_csr

    got = q_quadrat_csr(SF1K)

    key = pq.read_table(f"{SF1K}/orders.parquet",
                        columns=["o_custkey"])["o_custkey"].to_numpy()
    lon, lat = synth_lonlat(key.astype(np.int64))
    cell = codec.encode(lon, lat, BITS_TILE).astype(np.int64)
    _, counts = np.unique(cell, return_counts=True)
    Q = 1 << BITS_TILE
    N = int(counts.sum())
    K = int(counts.size)
    num = sum((Q * int(v) - N) ** 2 for v in counts) + (Q - K) * N * N
    assert int(got["n_points"].iloc[0]) == N
    assert int(got["k_occupied"].iloc[0]) == K
    assert float(got["chi2"].iloc[0]) == float(num) / float(Q * N)


def test_gopher_repetition_short_docs_zero(ray_session):
    """Invariants of the trigram repetition features over sf0.001: docs
    with no trigrams carry all-zero features (SQL LEFT JOIN parity), and
    distinct-count / max-multiplicity are consistent with the total."""
    import georay.queries as q

    res = q.q_gopher_repetition("/root/testdata/sf0.001").to_pandas()
    zero = res[res["n_tri"] == 0]
    assert (zero[["n_uniq_tri", "max_tri_n"]] == 0).all().all()
    some = res[res["n_tri"] > 0]
    assert len(some) > 0
    assert (some["n_uniq_tri"] <= some["n_tri"]).all()
    assert (some["max_tri_n"] >= 1).all()
    assert (some["max_tri_n"] <= some["n_tri"] - some["n_uniq_tri"] + 1).all()


def test_emerging_hotspots_category_consistency(ray_session):
    """Category labels must be consistent with their defining ints, and
    the composition must find at least one non-'none' tile at sf0.001."""
    from georay.queries import q_emerging_hotspots

    res = q_emerging_hotspots("/root/testdata/sf0.001")
    assert set(res["category"]) <= {
        "new_hot", "intensifying_hot", "persistent_hot", "former_hot",
        "none"}
    hot_last = res["hot_last"].to_numpy()
    hot_n = res["hot_n"].to_numpy()
    mk_s = res["mk_s"].to_numpy()
    cat = res["category"].to_numpy()
    assert ((cat == "none") == ((hot_last == 0) & (hot_n == 0))).all()
    assert ((cat == "new_hot") == ((hot_last == 1) & (hot_n == 1))).all()
    assert ((cat == "intensifying_hot")
            == ((hot_last == 1) & (hot_n > 1) & (mk_s > 0))).all()
    assert (res["hot_n"] <= res["n_weeks"]).all()
    assert (cat != "none").any()

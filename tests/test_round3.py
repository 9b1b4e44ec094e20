"""Round-3 regressions: ADVICE r2 fixes + VERDICT r2 "next round" items.

- connected_components: both physical plans agree when edge endpoints fall
  outside the node set (node-valued component ids).
- write_partitioned(resume=False) scrubs stale sidecars/files from prior runs.
- Chaos resume: a fault injected mid-write leaves committed partitions
  durable via sidecars; the rerun skips exactly those.
- detect_heavy_keys: distributed hot-key filter, driver collects O(hot).
- cosine_near_dup_pairs: degenerate-bucket cap (the constant-embedding
  corpus that previously formed one O(b²) bucket).
- jaccard_verify_shuffle: vectorized merge is bit-identical to the
  broadcast per-pair reference.
- Bloom semi-join: equivalence with the sorted-array path, FPR bound,
  superset semantics of exact=False.
- knn_adaptive: the ring-bound termination proof (not brute force) is the
  live path on a sparse fine-precision fixture.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _cc_both_plans(nodes, edges):
    import ray.data

    from georay.ops.cluster import connected_components

    nodes_ds = ray.data.from_arrow(
        pa.table({"node": pa.array(nodes, pa.int64())})
    )

    def run(broadcast_max):
        edges_ds = ray.data.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([a for a, _ in edges], pa.int64()),
                    "id_b": pa.array([b for _, b in edges], pa.int64()),
                }
            )
        )
        out = connected_components(
            nodes_ds, edges_ds, num_partitions=2,
            broadcast_edges_max=broadcast_max,
        ).to_pandas()
        return dict(zip(out["node"], out["component"]))

    return run(10**6), run(0)  # broadcast plan, distributed plan


def test_cc_plans_agree_with_external_endpoints(ray_session):
    # ADVICE r2 repro: nodes {5,7}, edges 5-1, 1-7 (1 is NOT a node).
    # Both plans must label 5 and 7 with component 5 (min NODE id,
    # relayed through the non-node endpoint) — never the non-node 1.
    bc, dist = _cc_both_plans([5, 7], [(5, 1), (1, 7)])
    assert bc == {5: 5, 7: 5}
    assert dist == {5: 5, 7: 5}


def test_cc_plans_agree_mixed_graph(ray_session):
    # components: {10,11,12} linked via external 99; singleton 20; {30,31}
    nodes = [10, 11, 12, 20, 30, 31]
    edges = [(10, 99), (99, 11), (11, 12), (30, 31)]
    bc, dist = _cc_both_plans(nodes, edges)
    expect = {10: 10, 11: 10, 12: 10, 20: 20, 30: 30, 31: 30}
    assert bc == expect
    assert dist == expect


def _part_ds(rows):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "part": pa.array([r[0] for r in rows], pa.string()),
                "v": pa.array([r[1] for r in rows], pa.int64()),
            }
        )
    )


def test_write_partitioned_fresh_run_scrubs_stale_state(ray_session, tmp_path):
    from georay import runtime

    out = str(tmp_path / "o")
    runtime.write_partitioned(
        _part_ds([("a", 1), ("b", 2), ("c", 3)]), out, "part", lineage="run-1"
    )
    assert sorted(runtime.load_manifest(out)["partitions"]) == ["a", "b", "c"]
    # ADVICE r2 repro: a FRESH (resume=False) run writing a dataset that
    # lacks partition c must not absorb c's stale sidecar/file as its own
    man = runtime.write_partitioned(
        _part_ds([("a", 10), ("b", 20)]), out, "part", resume=False,
        lineage="run-2",
    )
    assert sorted(man["partitions"]) == ["a", "b"]
    assert sorted(runtime.load_manifest(out)["partitions"]) == ["a", "b"]
    on_disk = [f for f in os.listdir(out) if f.startswith("part-")]
    assert not any("-c-" in f or f.startswith("part-c-") for f in on_disk)
    assert all(
        man["partitions"][k]["lineage"] == "run-2" for k in man["partitions"]
    )


class _FailOn:
    """Picklable fault injector: raises for one partition key."""

    def __init__(self, key):
        self.key = key

    def __call__(self, key):
        if key == self.key:
            raise RuntimeError(f"chaos: injected crash in partition {key!r}")


def test_write_partitioned_chaos_resume(ray_session, tmp_path):
    import ray.exceptions

    from georay import runtime

    out = str(tmp_path / "o")
    rows = [("a", 1), ("b", 2), ("c", 3), ("d", 4)]
    with pytest.raises(Exception):
        runtime.write_partitioned(
            _part_ds(rows), out, "part", lineage="crashed",
            fault_injector=_FailOn("c"),
        )
    # no final manifest; partitions that finished before the crash are
    # durable via sidecars; c is not among them
    committed = runtime.committed_partitions(out)
    assert "c" not in committed
    assert not os.path.exists(os.path.join(out, "_manifest.json"))
    mtimes = {
        f: os.path.getmtime(os.path.join(out, f))
        for f in os.listdir(out)
        if f.startswith("part-")
    }
    man = runtime.write_partitioned(
        _part_ds(rows), out, "part", lineage="resumed"
    )
    assert sorted(man["partitions"]) == ["a", "b", "c", "d"]
    assert man["partitions"]["c"]["lineage"] == "resumed"
    # partitions committed before the crash were NOT rewritten
    for f, t in mtimes.items():
        assert os.path.getmtime(os.path.join(out, f)) == t
    total = sum(p["rows"] for p in man["partitions"].values())
    assert total == len(rows)


def test_detect_heavy_keys_many_distinct(ray_session):
    import ray.data

    from georay import runtime

    # 1M distinct cold keys + 2 hot keys with 5k rows each: the driver
    # must get back exactly the hot keys (the n>threshold filter runs
    # inside the aggregate pipeline, not on a collected distinct table)
    n = 1_000_000
    cold = np.arange(n, dtype=np.int64)
    hot = np.concatenate(
        [np.full(5000, 2_000_001, np.int64), np.full(5000, 2_000_002, np.int64)]
    )
    ds = ray.data.from_arrow(
        pa.table({"k": np.concatenate([cold, hot])})
    ).repartition(8)
    out = np.sort(runtime.detect_heavy_keys(ds, "k", threshold=1000))
    assert out.tolist() == [2_000_001, 2_000_002]


def test_detect_heavy_keys_none_hot(ray_session):
    import ray.data

    from georay import runtime

    ds = ray.data.from_arrow(pa.table({"k": np.arange(1000, dtype=np.int64)}))
    assert runtime.detect_heavy_keys(ds, "k", threshold=5).size == 0


def _emb_ds(mat, ids=None):
    import ray.data

    n, d = mat.shape
    ids = np.arange(n, dtype=np.int64) if ids is None else ids
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array(list(mat.astype(np.float32))),
            }
        )
    )


def test_cosine_neardup_degenerate_bucket_capped(ray_session):
    from georay.ops.similarity import cosine_near_dup_pairs

    # adversarial corpus: 600 IDENTICAL embeddings -> every vector lands in
    # one bucket in every table; uncapped that is a single O(b²)=179k-pair
    # group. With max_bucket=100 the job must complete with only in-chunk
    # pairs (6 chunks × C(100,2) = 29700), all at cos≈1.
    rng = np.random.RandomState(0)
    base = rng.randn(64)
    mat = np.tile(base, (600, 1))
    out = cosine_near_dup_pairs(
        _emb_ds(mat), threshold=0.9, n_planes=4, n_tables=2, max_bucket=100
    ).to_pandas()
    assert len(out) == 6 * (100 * 99) // 2
    assert (out["id_a"] < out["id_b"]).all()
    assert np.allclose(out["cos"], 1.0)
    # chunking is deterministic: ids 0..99 pair only among themselves
    a, b = out["id_a"].to_numpy(), out["id_b"].to_numpy()
    assert ((a // 100) == (b // 100)).all()


def test_cosine_neardup_cap_none_unchanged(ray_session):
    from georay.ops.similarity import cosine_near_dup_pairs

    rng = np.random.RandomState(1)
    mat = rng.randn(120, 32)
    mat[10] = mat[50] * 2.0  # a genuine near-dup pair (cos == 1)
    capped = cosine_near_dup_pairs(
        _emb_ds(mat), threshold=0.8, n_planes=4, n_tables=4, max_bucket=4096
    ).to_pandas()
    exact = cosine_near_dup_pairs(
        _emb_ds(mat), threshold=0.8, n_planes=4, n_tables=4, max_bucket=None
    ).to_pandas()
    key = lambda df: sorted(zip(df["id_a"], df["id_b"]))  # noqa: E731
    assert key(capped) == key(exact)
    assert (10, 50) in key(exact)


def test_jaccard_verify_shuffle_matches_broadcast(ray_session):
    import ray.data

    from georay.ops.minhash import (jaccard_verify, jaccard_verify_shuffle,
                                    minhash_signatures, lsh_candidate_pairs)

    rng = np.random.RandomState(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = []
    for i in range(120):
        base = " ".join(rng.choice(words, size=12))
        texts.append(base)
        if i % 5 == 0:
            texts[-1] = texts[max(0, i - 1)]  # inject near/exact dups
    docs = pa.table(
        {"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
         "text": pa.array(texts)}
    )
    ds = ray.data.from_arrow(docs)
    sigs = minhash_signatures(ds, n_hashes=32)
    cand = lsh_candidate_pairs(sigs, n_bands=8, rows_per_band=4).materialize()
    bc = jaccard_verify(cand, docs, threshold=0.5).to_pandas()
    # num_partitions=2: the 4-CPU test session can't feed 16 shuffle
    # aggregators for each of the two verify joins (deadlocks backpressured)
    sh = jaccard_verify_shuffle(
        cand, ds, threshold=0.5, num_partitions=2
    ).to_pandas()
    bc = bc.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    sh = sh.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(bc, sh, check_exact=True)
    assert len(bc) > 0


def test_packed_view_roundtrip():
    from georay.ops.minhash import _packed_view

    sets = [
        np.array([1, 5, 9], np.uint64),
        np.array([2], np.uint64),
        np.array([], np.uint64),
        np.array([7, 8], np.uint64),
    ]
    arr = pa.array([s.tobytes() for s in sets], pa.binary())
    # exercise a non-zero array offset via slicing
    vals, counts = _packed_view(arr.slice(1))
    assert counts.tolist() == [1, 0, 2]
    assert vals.tolist() == [2, 7, 8]


# ------------------------------------------------------------------- bloom


def test_bloom_positions_deterministic_and_spread():
    from georay.ops.join import bloom_positions

    keys = np.arange(1000, dtype=np.int64)
    p1 = bloom_positions(keys, 1 << 16, 4)
    p2 = bloom_positions(keys, 1 << 16, 4)
    assert (p1 == p2).all()
    assert p1.shape == (1000, 4)
    # sequential ids must not cluster: expect high distinct-position count
    assert len(np.unique(p1)) > 3500


def test_bloom_fpr_bound(ray_session):
    import ray.data

    from georay.ops.join import _batch_bloom_bits, bloom_positions

    keys = np.arange(5000, dtype=np.int64)
    n_bits, k = 1 << 16, 4
    bits = _batch_bloom_bits(keys, n_bits, k)
    probes = np.arange(100_000, 200_000, dtype=np.int64)  # disjoint
    pos = bloom_positions(probes, n_bits, k)
    hit = ((bits[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0).all(axis=1)
    fpr = hit.mean()
    # theory: (1 - e^{-kn/m})^k ≈ (0.263)^4 ≈ 0.48%; allow 3x slack
    assert 0 < fpr < 0.015


def test_bloom_build_driver_or_equals_shuffle(ray_session):
    import ray.data

    from georay.ops.join import build_bloom

    keys = np.random.RandomState(7).randint(0, 1 << 40, size=20_000)
    keys_ds = ray.data.from_arrow(
        pa.table({"k": keys.astype(np.int64)})
    ).repartition(8)
    fast = build_bloom(keys_ds, "k", n_bits=1 << 16, chunk_bytes=1 << 10)
    slow = build_bloom(
        keys_ds, "k", n_bits=1 << 16, chunk_bytes=1 << 10, driver_or_bytes=0
    )
    assert (fast == slow).all()
    assert fast.any()


def test_bloom_semi_join_matches_sorted_array(ray_session):
    import ray.data

    from georay.ops.join import bloom_semi_join, broadcast_semi_join

    rng = np.random.RandomState(3)
    probe = rng.randint(0, 3000, size=5000).astype(np.int64)
    keys = np.unique(rng.randint(0, 3000, size=800).astype(np.int64))
    ds = ray.data.from_arrow(pa.table({"k": probe, "v": probe * 2}))
    keys_ds = ray.data.from_arrow(pa.table({"k": keys}))

    for anti in (False, True):
        ref = broadcast_semi_join(ds, keys, on="k", anti=anti).to_pandas()
        # tiny n_bits -> false positives occur; exact verify must kill them
        got = bloom_semi_join(
            ds, keys_ds, on="k", anti=anti, n_bits=1 << 13, n_hashes=3,
            num_partitions=2,  # 4-CPU session: don't starve the verify join
        ).to_pandas()
        ref = ref.sort_values(["k", "v"]).reset_index(drop=True)
        got = got.sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(ref, got, check_exact=True)
        assert len(ref) > 0


def test_bloom_semi_join_inexact_is_superset(ray_session):
    import ray.data

    from georay.ops.join import bloom_semi_join, broadcast_semi_join

    probe = np.arange(4000, dtype=np.int64)
    keys = np.arange(0, 4000, 7, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"k": probe}))
    keys_ds = ray.data.from_arrow(pa.table({"k": keys}))
    exact_semi = set(
        broadcast_semi_join(ds, keys, on="k").to_pandas()["k"]
    )
    loose_semi = set(
        bloom_semi_join(
            ds, keys_ds, on="k", n_bits=1 << 13, n_hashes=2, exact=False
        ).to_pandas()["k"]
    )
    assert exact_semi <= loose_semi  # no false negatives, ever
    loose_anti = set(
        bloom_semi_join(
            ds, keys_ds, on="k", anti=True, n_bits=1 << 13, n_hashes=2,
            exact=False,
        ).to_pandas()["k"]
    )
    # anti without verify is a SUBSET of the true anti set, and disjoint
    # from the loose semi set (each row classifies exactly one way)
    assert loose_anti.isdisjoint(loose_semi)
    assert loose_anti <= set(probe) - exact_semi


# ------------------------------------------------------- knn_adaptive rings


def test_knn_adaptive_ring_expansion_is_live_path(ray_session):
    import ray.data

    from georay import codec
    from georay.ops.knn import knn_adaptive

    bits = 24  # 4096x4096 grid; min_err = lat_err = 180/4096 ≈ 0.0439°
    # sparse refs: k=2 neighbors ~0.3° north/south of each query — outside
    # ring 4 (0.176°), found inside ring 8, and the ring-bound proof
    # sqrt(kth) ≈ 0.3 < 8·0.0439 ≈ 0.351 terminates at d=8 — well past
    # the d=4 recursion depth and far below the 4096-candidate brute cutoff
    qlon = np.array([10.0, 40.0, -60.0])
    qlat = np.array([0.0, 20.0, -30.0])
    rlon = np.concatenate([qlon, qlon])
    rlat = np.concatenate([qlat + 0.30, qlat - 0.31])
    rid = np.arange(rlon.size, dtype=np.int64)
    refs = pa.table(
        {
            "ref_id": pa.array(rid),
            "lon": pa.array(rlon),
            "lat": pa.array(rlat),
            "cell": pa.array(
                codec.encode(rlon, rlat, bits).astype(np.int64)
            ),
        }
    )
    queries = ray.data.from_arrow(
        pa.table(
            {
                "qid": pa.array(np.arange(3, dtype=np.int64)),
                "lon": pa.array(qlon),
                "lat": pa.array(qlat),
                "cell": pa.array(
                    codec.encode(qlon, qlat, bits).astype(np.int64)
                ),
            }
        )
    )
    out = knn_adaptive(
        queries, refs, bits=bits, k=2, query_cols=["qid"],
        record_ring_col="ring",
    ).to_pandas()
    assert len(out) == 6  # 3 queries x k=2
    # every row resolved by the ring-bound proof at d=8: positive (no
    # brute-force fallback) and strictly past the early d in {1,2,4}
    assert set(out["ring"]) == {8}
    # and the answers are the true global top-2 per query
    for qi in range(3):
        got = out[out["qid"] == qi].sort_values("rank")["ref_id"].tolist()
        d2 = (rlon - qlon[qi]) ** 2 + (rlat - qlat[qi]) ** 2
        expect = rid[np.lexsort((rid, d2))][:2].tolist()
        assert got == expect


# ------------------------------------------------ polygon cover (polyfill)


def test_ray_cast_rectangle_half_open_contract():
    # the SQL twins rely on: ray-cast interior of an axis-aligned ring is
    # EXACTLY [xl, xr) x [yb, yt) — left/bottom edges inside, right/top out
    from georay.geometry import make_box_ring, points_in_ring

    rx, ry = make_box_ring(10.0, 20.0, 4.0, 2.0)  # [10,14) x [20,22)
    lon = np.array([10.0, 13.999, 14.0, 12.0, 12.0, 12.0])
    lat = np.array([21.0, 21.0, 21.0, 20.0, 21.999, 22.0])
    assert points_in_ring(lon, lat, rx, ry).tolist() == [
        True, True, False, True, True, False,
    ]


def test_polygon_cover_matches_sql_enumeration():
    import duckdb

    from georay import cells, codec
    from georay.queries import BITS_POLY, SQL_POLYGON_COVER, poly_l_ring

    rx, ry = poly_l_ring()
    cover = cells.polygon_cover(rx, ry, BITS_POLY)
    x, y = codec.deinterleave(cover, BITS_POLY)
    got = sorted(zip(x.tolist(), y.tolist()))
    want = duckdb.sql(SQL_POLYGON_COVER).df()
    assert got == sorted(zip(want["cx"].tolist(), want["cy"].tolist()))
    assert len(got) > 200  # non-trivial cover
    # tiny slabs must not change the result (chunked enumeration)
    assert np.array_equal(
        cells.polygon_cover(rx, ry, BITS_POLY, chunk=7), cover
    )


def test_polygon_cover_compact_roundtrip():
    from georay import cells
    from georay.queries import BITS_POLY, poly_l_ring

    rx, ry = poly_l_ring()
    cover = cells.polygon_cover(rx, ry, BITS_POLY)
    codes, code_bits = cells.polygon_cover_compact(rx, ry, BITS_POLY)
    assert codes.size < cover.size  # promotion actually happened
    assert len(set(code_bits.tolist())) >= 2  # genuinely mixed precision
    back = np.sort(cells.uncompact(codes, code_bits, BITS_POLY))
    assert np.array_equal(back, cover)


def test_polygon_cover_dataset_matches_numpy(ray_session):
    from georay import cells
    from georay.queries import BITS_POLY, poly_l_ring

    rx, ry = poly_l_ring()
    want = cells.polygon_cover(rx, ry, BITS_POLY)
    # small rows_per_task -> several strips, exercises the parallel split
    got = (
        cells.polygon_cover_dataset(rx, ry, BITS_POLY, rows_per_task=3)
        .to_pandas()["cell"]
        .to_numpy()
        .astype(np.uint64)
    )
    assert np.array_equal(np.sort(got), want)


def test_polygon_cover_empty_and_clipped():
    from georay import cells

    # polygon fully between cell centers -> empty cover
    rx = np.array([0.01, 0.02, 0.02, 0.01])
    ry = np.array([0.01, 0.01, 0.02, 0.02])
    assert cells.polygon_cover(rx, ry, 15).size == 0
    # polygon beyond the poles clips to the grid without error
    rx = np.array([-10.0, 10.0, 10.0, -10.0])
    ry = np.array([80.0, 80.0, 99.0, 99.0])
    cov = cells.polygon_cover(rx, ry, 15)
    assert cov.size > 0


def test_knn_shuffle_expand_sides_identical(ray_session):
    import ray.data

    from georay import codec
    from georay.ops import knn as knn_ops

    rng = np.random.RandomState(11)
    bits = 8

    def pts(n, id_name, seed):
        r = np.random.RandomState(seed)
        i = np.arange(n, dtype=np.int64)
        lon = r.uniform(-179, 179, n)
        lat = r.uniform(-89, 89, n)
        return ray.data.from_arrow(pa.table({
            id_name: i, "lon": lon, "lat": lat,
            "cell": codec.encode(lon, lat, bits).astype(np.int64),
        }))

    outs = []
    for side in ("queries", "refs"):
        out = knn_ops.knn_shuffle(
            pts(800, "query_id", 1), pts(120, "ref_id", 2), bits=bits, k=3,
            ring=1, num_partitions=2, expand_side=side,
        ).to_pandas().sort_values(
            ["query_id", "rank"]).reset_index(drop=True)
        outs.append(out[["query_id", "ref_id", "dist2", "rank"]])
    pd.testing.assert_frame_equal(outs[0], outs[1], check_exact=True)
    assert len(outs[0]) > 0


# ------------------------------------------------------------- grouped top-k


def test_grouped_topk_matches_pandas_rank(ray_session):
    import ray.data

    from georay.ops.rank import grouped_topk

    rng = np.random.RandomState(23)
    n = 5_000
    df = pd.DataFrame(
        {
            "grp": rng.randint(0, 40, size=n).astype(np.int64),
            "val": rng.randint(0, 50, size=n).astype(np.int64),  # heavy ties
            "uid": np.arange(n, dtype=np.int64),
        }
    )
    want = df.sort_values(
        ["grp", "val", "uid"], ascending=[True, False, True]
    ).groupby("grp").head(3).copy()
    want["rank"] = want.groupby("grp").cumcount() + 1
    want = want.sort_values(["grp", "rank"]).reset_index(drop=True)

    for blocks in (1, 11):
        ds = ray.data.from_arrow(
            pa.Table.from_pandas(df, preserve_index=False)
        ).repartition(blocks)
        got = (
            grouped_topk(ds, ["grp"], ["val", "uid"], [False, True], k=3)
            .to_pandas().sort_values(["grp", "rank"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["grp", "val", "uid", "rank"]], want, check_dtype=True
        )


def test_grouped_topk_string_keys(ray_session):
    import ray.data

    from georay.ops.rank import grouped_topk

    df = pd.DataFrame(
        {
            "grp": ["aa", "bb", "aa", "cc", "bb", "aa"],
            "v": np.array([5, 1, 9, 4, 2, 7], dtype=np.int64),
        }
    )
    got = (
        grouped_topk(
            ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(3),
            ["grp"], ["v"], [False], k=2,
        )
        .to_pandas().sort_values(["grp", "rank"]).reset_index(drop=True)
    )
    want = pd.DataFrame(
        {"grp": ["aa", "aa", "bb", "bb", "cc"],
         "v": np.array([9, 7, 2, 1, 4], dtype=np.int64),
         "rank": np.array([1, 2, 1, 2, 1], dtype=np.int64)}
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=True)

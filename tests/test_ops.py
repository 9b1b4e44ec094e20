"""Distributed operator tests vs in-memory pandas oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay import cells, codec
from georay.ops import join as join_ops
from georay.ops import knn as knn_ops
from georay.ops import spatial, tiles


@pytest.fixture(scope="module")
def point_tables():
    rng = np.random.RandomState(0)
    n_left, n_right = 2000, 300
    lkey = np.arange(n_left, dtype=np.int64)
    rkey = np.arange(n_right, dtype=np.int64) + 10_000
    left = pa.table({"lkey": lkey})
    right = pa.table({"rkey": rkey})
    return left, right


def _with_cells(table, key, bits):
    t = spatial.add_synth_points(table, key)
    t = spatial.add_cell(t, bits)
    return spatial.add_cell_xy(t, bits)


def _oracle_join(lt: pa.Table, rt: pa.Table) -> set:
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    m = ldf.merge(rdf, on="cell")
    return set(zip(m["lkey"], m["rkey"]))


def test_broadcast_join_matches_pandas(ray_session, point_tables):
    import ray

    left, right = point_tables
    bits = 10
    lt = _with_cells(left, "lkey", bits)
    rt = _with_cells(right, "rkey", bits)
    ds = ray.data.from_arrow(lt).repartition(6)
    out = join_ops.broadcast_cell_join(
        ds, rt, on="cell", left_cols=["lkey"], right_cols=["rkey"]
    ).to_pandas()
    assert set(zip(out["lkey"], out["rkey"])) == _oracle_join(lt, rt)


def test_shuffle_join_matches_pandas(ray_session, point_tables):
    import ray

    left, right = point_tables
    bits = 10
    lt = _with_cells(left, "lkey", bits)
    rt = _with_cells(right, "rkey", bits)
    out = join_ops.shuffle_cell_join(
        ray.data.from_arrow(lt).repartition(4),
        ray.data.from_arrow(rt).repartition(2),
        on="cell",
        num_partitions=4,
        left_cols=["lkey"],
        right_cols=["rkey"],
    ).to_pandas()
    assert set(zip(out["lkey"], out["rkey"])) == _oracle_join(lt, rt)


def _oracle_knn(lt: pa.Table, rt: pa.Table, bits, k, ring):
    """Brute-force ring-kNN in pandas/numpy."""
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    nx, ny = codec.split_bits(bits)
    want = []
    for _, q in ldf.iterrows():
        dx = np.minimum(
            (q["cx"] - rdf["cx"]) % (1 << nx), (rdf["cx"] - q["cx"]) % (1 << nx)
        )
        ok = (dx <= ring) & ((q["cy"] - rdf["cy"]).abs() <= ring)
        cand = rdf[ok].copy()
        if cand.empty:
            continue
        cand["dist2"] = (q["lon"] - cand["lon"]) ** 2 + (q["lat"] - cand["lat"]) ** 2
        cand = cand.sort_values(["dist2", "rkey"]).head(k)
        for rank, (_, row) in enumerate(cand.iterrows(), 1):
            want.append((q["lkey"], row["rkey"], rank))
    return set(want)


def test_knn_ring_matches_brute(ray_session, point_tables):
    import ray

    left, right = point_tables
    bits, k, ring = 8, 3, 1
    lt = _with_cells(left, "lkey", bits)
    rt = _with_cells(right, "rkey", bits)
    out = knn_ops.knn_ring(
        ray.data.from_arrow(lt).repartition(5),
        rt,
        bits=bits,
        k=k,
        ring=ring,
        query_cols=["lkey"],
        ref_id="rkey",
    ).to_pandas()
    got = set(zip(out["lkey"], out["rkey"], out["rank"]))
    assert got == _oracle_knn(lt, rt, bits, k, ring)


def test_knn_ring2(ray_session, point_tables):
    import ray

    left, right = point_tables
    bits, k, ring = 10, 2, 2
    lt = _with_cells(left.slice(0, 300), "lkey", bits)
    rt = _with_cells(right, "rkey", bits)
    out = knn_ops.knn_ring(
        ray.data.from_arrow(lt),
        rt,
        bits=bits,
        k=k,
        ring=ring,
        query_cols=["lkey"],
        ref_id="rkey",
    ).to_pandas()
    got = set(zip(out["lkey"], out["rkey"], out["rank"]))
    assert got == _oracle_knn(lt, rt, bits, k, ring)


def test_knn_shuffle_matches_brute(ray_session, point_tables):
    import ray

    left, right = point_tables
    bits, k, ring = 8, 3, 1
    lt = _with_cells(left.slice(0, 200), "lkey", bits)
    rt = _with_cells(right, "rkey", bits)
    lq = lt.rename_columns(
        ["query_id" if c == "lkey" else c for c in lt.column_names]
    ).drop_columns(["cx", "cy"])
    rq = rt.rename_columns(
        ["ref_id" if c == "rkey" else c for c in rt.column_names]
    ).drop_columns(["cx", "cy"])
    out = knn_ops.knn_shuffle(
        ray.data.from_arrow(lq).repartition(3),
        ray.data.from_arrow(rq),
        bits=bits,
        k=k,
        ring=ring,
        num_partitions=4,
    ).to_pandas()
    got = set(zip(out["query_id"], out["ref_id"], out["rank"]))
    want = {(a, b - 0, r) for a, b, r in _oracle_knn(lt, rt, bits, k, ring)}
    assert got == want


def test_tile_counts_matches_pandas(ray_session, point_tables):
    import ray

    left, _ = point_tables
    bits = 10
    lt = _with_cells(left, "lkey", bits)
    out = tiles.tile_counts(
        ray.data.from_arrow(lt).repartition(7), bits
    ).to_pandas()
    df = lt.to_pandas()
    want = df.groupby(["cx", "cy"]).size()
    got = out.set_index(["tile_x", "tile_y"])["n"]
    assert got.sort_index().equals(want.sort_index().rename("n"))


def test_tile_counts_reprefix(ray_session, point_tables):
    import ray

    left, _ = point_tables
    lt = _with_cells(left, "lkey", 20)
    out = tiles.tile_counts(
        ray.data.from_arrow(lt), bits=10, cell_bits=20
    ).to_pandas()
    df = spatial.add_cell_xy(spatial.add_synth_points(left, "lkey"), 10).to_pandas()
    want = df.groupby(["cx", "cy"]).size()
    got = out.set_index(["tile_x", "tile_y"])["n"]
    assert got.sort_index().equals(want.sort_index().rename("n"))


def test_assemble_raster(ray_session):
    import ray

    rng = np.random.RandomState(12)
    lon = rng.uniform(-180, 180, 500)
    lat = rng.uniform(-90, 90, 500)
    cell = codec.encode(lon, lat, 12)
    t = pa.table({"cell": cell.astype(np.int64), "n": np.ones(500, dtype=np.int64)})
    out = tiles.assemble_raster(
        ray.data.from_arrow(t), bits=12, value_col="n", tile_bits=4
    ).to_pandas()
    # every point lands in exactly one tile grid; total mass preserved
    total = sum(np.asarray(v).sum() for v in out["values"])
    # duplicate cells overwrite (assemble uses assignment) — compare vs unique cells
    uniq = np.unique(cell)
    assert total == len(uniq) or total == 500  # 500 if no dup cells
    assert (out["h"] * out["w"] >= 1).all()


def test_knn_adaptive_exact_global(ray_session, point_tables):
    import ray

    left, right = point_tables
    bits, k = 8, 4
    lt = _with_cells(left.slice(0, 400), "lkey", bits)
    rt = _with_cells(right, "rkey", bits)
    out = knn_ops.knn_adaptive(
        ray.data.from_arrow(lt).repartition(4),
        rt,
        bits=bits,
        k=k,
        query_cols=["lkey"],
        ref_id="rkey",
    ).to_pandas()
    # brute-force global kNN oracle
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    want = set()
    for _, q in ldf.iterrows():
        d2 = (q["lon"] - rdf["lon"]) ** 2 + (q["lat"] - rdf["lat"]) ** 2
        cand = rdf.assign(d2=d2).sort_values(["d2", "rkey"]).head(k)
        for rank, (_, row) in enumerate(cand.iterrows(), 1):
            want.add((q["lkey"], row["rkey"], rank))
    got = set(zip(out["lkey"], out["rkey"], out["rank"]))
    assert got == want


def test_knn_adaptive_sparse_refs(ray_session):
    # 3 refs in one corner of the earth, queries everywhere: rings must
    # expand (and wrap) until the TRUE nearest refs are found
    import ray

    rng = np.random.RandomState(42)
    bits, k = 8, 2
    lkey = np.arange(150, dtype=np.int64)
    lt = _with_cells(pa.table({"lkey": lkey}), "lkey", bits)
    rt = pa.table(
        {
            "rkey": np.array([0, 1, 2], dtype=np.int64),
            "lon": np.array([-179.5, -178.0, 179.5]),
            "lat": np.array([-89.0, -88.5, -89.5]),
        }
    )
    from georay.ops import spatial as sp

    rt = sp.add_cell(rt, bits)
    out = knn_ops.knn_adaptive(
        ray.data.from_arrow(lt),
        rt,
        bits=bits,
        k=k,
        query_cols=["lkey"],
        ref_id="rkey",
    ).to_pandas()
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    want = set()
    for _, q in ldf.iterrows():
        d2 = (q["lon"] - rdf["lon"]) ** 2 + (q["lat"] - rdf["lat"]) ** 2
        cand = rdf.assign(d2=d2).sort_values(["d2", "rkey"]).head(k)
        for rank, (_, row) in enumerate(cand.iterrows(), 1):
            want.add((q["lkey"], row["rkey"], rank))
    got = set(zip(out["lkey"], out["rkey"], out["rank"]))
    assert got == want


def test_shuffle_join_left_outer(ray_session, point_tables):
    import ray

    left, right = point_tables
    bits = 12  # sparse -> many unmatched customers
    lt = _with_cells(left.slice(0, 500), "lkey", bits)
    rt = _with_cells(right, "rkey", bits)
    out = join_ops.shuffle_cell_join(
        ray.data.from_arrow(lt).repartition(3),
        ray.data.from_arrow(rt),
        on="cell",
        num_partitions=4,
        left_cols=["lkey"],
        right_cols=["rkey"],
        join_type="left_outer",
    ).to_pandas()
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    m = ldf[["lkey", "cell"]].merge(rdf[["rkey", "cell"]], on="cell", how="left")
    assert len(out) == len(m)
    got = set(zip(out["lkey"], out["rkey"].fillna(-1)))
    want = set(zip(m["lkey"], m["rkey"].fillna(-1)))
    assert got == want


def test_semi_join_empty_keys(ray_session):
    import ray

    t = pa.table({"k": np.arange(50, dtype=np.int64)})
    ds = ray.data.from_arrow(t)
    semi = join_ops.broadcast_semi_join(ds, np.array([], dtype=np.int64), on="k").to_pandas()
    anti = join_ops.broadcast_semi_join(ds, np.array([], dtype=np.int64), on="k", anti=True).to_pandas()
    assert len(semi) == 0 and len(anti) == 50


# bits=4 -> 4-column lon grid (90 deg cells); ring 2 (ring 3 for the
# 100 deg radius) -> a ring wider than 4 columns aliases the wrap; without
# the probe's dedup the same ref appears twice for one query
_WRAP_PLANS = {
    "knn_ring": lambda lds, rt, rds: knn_ops.knn_ring(
        lds, rt, bits=4, k=5, ring=2, query_cols=["lkey"], ref_id="rkey"),
    "knn_shuffle": lambda lds, rt, rds: knn_ops.knn_shuffle(
        lds, rds, bits=4, k=5, ring=2, query_id="lkey", ref_id="rkey",
        num_partitions=2),
    "dwithin_ring": lambda lds, rt, rds: knn_ops.dwithin_ring(
        lds, rt, bits=4, radius=100.0, query_cols=["lkey"], ref_id="rkey"),
    "dwithin_shuffle": lambda lds, rt, rds: knn_ops.dwithin_shuffle(
        lds, rds, bits=4, radius=100.0, query_id="lkey", ref_id="rkey",
        num_partitions=2),
}


@pytest.mark.parametrize("plan", sorted(_WRAP_PLANS))
def test_knn_ring_tiny_grid_wrap_dedup(ray_session, plan):
    import ray

    from georay.ops import spatial as sp

    lt = sp.add_cell(sp.add_synth_points(pa.table({"lkey": np.arange(40, dtype=np.int64)}), "lkey"), 4)
    rt = sp.add_cell(sp.add_synth_points(pa.table({"rkey": np.arange(10, dtype=np.int64) + 500}), "rkey"), 4)
    assert knn_ops.dwithin_ring_for(100.0, 4) == 3
    out = _WRAP_PLANS[plan](
        ray.data.from_arrow(lt), rt, ray.data.from_arrow(rt)
    ).to_pandas()
    assert len(out) > 0
    dup = out.groupby(["lkey", "rkey"]).size()
    assert (dup == 1).all(), "duplicate (query, ref) pairs"
    if plan.startswith("dwithin"):
        assert set(zip(out["lkey"], out["rkey"])) == _oracle_dwithin(lt, rt, 100.0)


def _oracle_dwithin(lt, rt, radius):
    qlon, qlat = lt["lon"].to_numpy(), lt["lat"].to_numpy()
    rlon, rlat = rt["lon"].to_numpy(), rt["lat"].to_numpy()
    qk, rk = lt["lkey"].to_numpy(), rt["rkey"].to_numpy()
    dx = qlon[:, None] - rlon[None, :]
    dy = qlat[:, None] - rlat[None, :]
    d2 = dx * dx + dy * dy
    qi, ri = np.nonzero(d2 <= radius * radius)
    return set(zip(qk[qi], rk[ri]))


def test_dwithin_ring_matches_brute(ray_session, point_tables):
    """Fine grid (32x32) with radius spanning >1 cell: the auto ring must
    cover the radius exactly (no missed pairs vs the O(n^2) oracle)."""
    import ray

    left, right = point_tables
    bits, radius = 10, 7.5
    lt = _with_cells(left, "lkey", bits)
    rt = _with_cells(right, "rkey", bits)
    assert knn_ops.dwithin_ring_for(radius, bits) == 2  # 11.25-deg lon cells
    out = knn_ops.dwithin_ring(
        ray.data.from_arrow(lt).repartition(5), rt,
        bits=bits, radius=radius, query_cols=["lkey"], ref_id="rkey",
    ).to_pandas()
    assert set(zip(out["lkey"], out["rkey"])) == _oracle_dwithin(lt, rt, radius)
    assert (out["dist2"] <= radius * radius).all()


def test_dwithin_shuffle_matches_broadcast(ray_session, point_tables):
    import ray

    left, right = point_tables
    bits, radius = 8, 10.0
    lt = _with_cells(left, "lkey", bits)
    rt = _with_cells(right, "rkey", bits)
    ring = knn_ops.dwithin_ring_for(radius, bits)
    assert ring == 1
    out = knn_ops.dwithin_shuffle(
        ray.data.from_arrow(lt).repartition(5),
        ray.data.from_arrow(rt).repartition(3),
        bits=bits, radius=radius, query_id="lkey", ref_id="rkey",
        num_partitions=4, expand_side="refs",
    ).to_pandas()
    assert set(zip(out["lkey"], out["rkey"])) == _oracle_dwithin(lt, rt, radius)


def test_dwithin_boundary_inclusive(ray_session):
    """A pair at EXACTLY the radius is kept (<=, not <) — both points on
    the same parallel, lon difference == radius."""
    import ray

    bits, radius = 8, 5.0
    lt = pa.table({"lkey": np.array([1], np.int64),
                   "lon": np.array([0.0]), "lat": np.array([0.0])})
    rt = pa.table({"rkey": np.array([2], np.int64),
                   "lon": np.array([5.0]), "lat": np.array([0.0])})
    lt = spatial.add_cell(lt, bits)
    rt = spatial.add_cell(rt, bits)
    out = knn_ops.dwithin_ring(
        ray.data.from_arrow(lt), rt,
        bits=bits, radius=radius, query_cols=["lkey"], ref_id="rkey",
    ).to_pandas()
    assert list(zip(out["lkey"], out["rkey"])) == [(1, 2)]
    assert out["dist2"].iloc[0] == 25.0


def test_zonal_stats_matches_pandas(ray_session):
    import ray

    rng = np.random.RandomState(7)
    zones = rng.choice(["a", "b", "c", "hot"], size=5000, p=[0.2, 0.2, 0.1, 0.5])
    vals = rng.randint(-1000, 1000, size=5000).astype(np.int64)
    t = pa.table({"zone": pa.array(zones), "v": pa.array(vals)})
    out = (
        tiles.zonal_stats(
            ray.data.from_arrow(t).repartition(8), "zone", "v",
        )
        .to_pandas()
        .sort_values("zone")
        .reset_index(drop=True)
    )
    want = (
        pd.DataFrame({"zone": zones, "v": vals})
        .groupby("zone", as_index=False)
        .agg(n=("v", "size"), sum_v=("v", "sum"), min_v=("v", "min"),
             max_v=("v", "max"))
        .sort_values("zone")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[want.columns.tolist()], want)


def test_box_overlap_join_matches_brute(ray_session):
    """Random + degenerate (point, edge-touching) boxes vs O(n·m) brute
    force; the report-once trick must emit every overlapping pair exactly
    once."""
    import ray

    rng = np.random.RandomState(13)
    s, nx, ny = 11250, 32, 16

    def boxes(n, key0, max_half, idc):
        cx = rng.randint(0, 360000, n).astype(np.int64)
        cy = rng.randint(0, 180000, n).astype(np.int64)
        hw = rng.randint(0, max_half, n).astype(np.int64)
        hh = rng.randint(0, max_half, n).astype(np.int64)
        return pa.table(
            {
                idc: np.arange(key0, key0 + n, dtype=np.int64),
                "x0": np.maximum(cx - hw, 0),
                "y0": np.maximum(cy - hh, 0),
                "x1": np.minimum(cx + hw, 360000),
                "y1": np.minimum(cy + hh, 180000),
            }
        )

    a = boxes(300, 0, 30000, "aid")
    b = boxes(80, 1000, 50000, "bid")
    # inject exact edge-touch and identical-box pairs
    a = pa.concat_tables([a, pa.table({
        "aid": np.array([900, 901], np.int64),
        "x0": np.array([0, 50000], np.int64),
        "y0": np.array([0, 50000], np.int64),
        "x1": np.array([11250, 61250], np.int64),
        "y1": np.array([11250, 61250], np.int64)})])
    b = pa.concat_tables([b, pa.table({
        "bid": np.array([2000, 2001], np.int64),
        "x0": np.array([11250, 50000], np.int64),
        "y0": np.array([11250, 50000], np.int64),
        "x1": np.array([22500, 61250], np.int64),
        "y1": np.array([22500, 61250], np.int64)})])

    from georay.ops import join as join_ops

    got = join_ops.box_overlap_join(
        ray.data.from_arrow(a).repartition(5),
        ray.data.from_arrow(b).repartition(3),
        cell_size=s, nx=nx, ny=ny, a_id="aid", b_id="bid",
        num_partitions=4, coalesce=3,
    ).to_pandas()
    assert len(got) == len(got.drop_duplicates(["aid", "bid"]))  # report-once

    ax0, ay0 = a["x0"].to_numpy(), a["y0"].to_numpy()
    ax1, ay1 = a["x1"].to_numpy(), a["y1"].to_numpy()
    bx0, by0 = b["x0"].to_numpy(), b["y0"].to_numpy()
    bx1, by1 = b["x1"].to_numpy(), b["y1"].to_numpy()
    ov = ((ax0[:, None] <= bx1[None, :]) & (bx0[None, :] <= ax1[:, None])
          & (ay0[:, None] <= by1[None, :]) & (by0[None, :] <= ay1[:, None]))
    ai, bi = np.nonzero(ov)
    want = set(zip(a["aid"].to_numpy()[ai], b["bid"].to_numpy()[bi]))
    assert set(zip(got["aid"], got["bid"])) == want
    # the injected corner-touch pair (900, 2000) has zero intersection area
    row = got[(got["aid"] == 900) & (got["bid"] == 2000)]
    assert len(row) == 1 and row["inter_area"].iloc[0] == 0


def test_pivot_counts_matches_crosstab(ray_session):
    """Unlisted categories fold into n_other; listed-but-absent values
    emit all-zero columns; multi-block input sums correctly."""
    import ray

    from georay.ops.pivot import pivot_counts

    rng = np.random.RandomState(13)
    n = 400
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 9, n).astype(np.int64),
            "c": np.array(["a", "b", "c", "d"])[rng.randint(0, 4, n)],
        }
    )
    got = (
        pivot_counts(
            ray.data.from_arrow(
                pa.Table.from_pandas(df, preserve_index=False)
            ).repartition(5),
            "k", "c", values=["a", "b", "zz"],
        )
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    want = pd.DataFrame({"k": np.sort(df["k"].unique())})
    ct = pd.crosstab(df["k"], df["c"])
    want["n_a"] = ct["a"].to_numpy(np.int64)
    want["n_b"] = ct["b"].to_numpy(np.int64)
    want["n_zz"] = 0
    want["n_other"] = (ct["c"] + ct["d"]).to_numpy(np.int64)
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


def test_geodesic_dwithin_polar_brute_parity(ray_session):
    """The latitude-adaptive ring must not lose pairs anywhere —
    especially near the poles, where two points 1 km apart can differ by
    180 degrees of longitude and any fixed-width lon ring is wrong.
    Brute haversine over a point set loaded with polar, antimeridian,
    and equatorial cases must match exactly (ids AND kernel values)."""
    import ray

    from georay import codec
    from georay.ops import knn as knn_ops

    rng = np.random.RandomState(3)
    lon = np.concatenate([
        rng.uniform(-180, 180, 300),
        np.array([179.9, -179.9, 0.1, -0.1, 10.0, -170.0]),   # antimeridian
        rng.uniform(-180, 180, 20),                           # polar cloud
    ])
    lat = np.concatenate([
        rng.uniform(-85, 85, 300),
        np.array([0.0, 0.0, 89.0, 89.0, -89.5, -89.5]),
        rng.uniform(88.5, 89.99, 20),
    ])
    n = lon.size
    ids = np.arange(n, dtype=np.int64)
    bits = 8
    cell = codec.encode(lon, lat, bits).astype(np.int64)
    t = pa.table({"qid": ids, "lon": lon, "lat": lat, "cell": cell})
    refs = pa.table({"rid": ids + 1000, "lon": lon, "lat": lat, "cell": cell})
    d = 1_500_000.0
    got = knn_ops.geodesic_dwithin_ring(
        ray.data.from_arrow(t).repartition(3), refs, bits=bits, d_meters=d,
        query_cols=["qid"], ref_id="rid",
    ).to_pandas()

    import math
    thr = math.sin(d / (2.0 * 6371008.8)) ** 2
    sp = np.sin((np.radians(lat)[:, None] - np.radians(lat)[None, :]) / 2.0)
    sl = np.sin((np.radians(lon)[:, None] - np.radians(lon)[None, :]) / 2.0)
    h = sp * sp + (np.cos(np.radians(lat))[:, None]
                   * np.cos(np.radians(lat))[None, :]) * (sl * sl)
    want = {(int(i), int(j) + 1000) for i in ids for j in ids
            if h[i, j] <= thr}
    assert set(zip(got["qid"], got["rid"])) == want
    # polar points must have found cross-longitude partners
    polar = got[got.qid >= 306]
    assert len(polar) > 20


def _brute_ring_knn(qcell, qlon, qlat, rcell, rlon, rlat, rid, bits, ring):
    """Per query, its ring candidates' (dist2, ref_id) in (dist2, ref_id)
    order, NaN distances last: the Chebyshev cell ring by grid arithmetic
    (x wraps, y does not), and the kernel's float expression."""
    nx, ny = codec.split_bits(bits)
    w = 1 << nx
    qx, qy = (a.astype(np.int64) for a in codec.deinterleave(qcell, bits))
    rx, ry = (a.astype(np.int64) for a in codec.deinterleave(rcell, bits))
    out = []
    for i in range(qcell.size):
        ddx = np.abs(qx[i] - rx)
        near = (np.minimum(ddx, w - ddx) <= ring) & (np.abs(qy[i] - ry) <= ring)
        dx = qlon[i] - rlon[near]
        dy = qlat[i] - rlat[near]
        d = dx * dx + dy * dy
        out.append(sorted(zip(d.tolist(), rid[near].tolist()),
                          key=lambda p: (np.isnan(p[0]), np.nan_to_num(p[0]),
                                         p[1])))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_knn_ring_kernel_matches_brute_ranking(data):
    # coordinates on a coarse lattice (equal distances tie at the k-th),
    # repeated ref ids, NaN lon/lat, few or no refs, one hot cell holding
    # most refs, and bits=2, where a ring wraps the 2-cell-wide grid
    bits = data.draw(st.sampled_from([2, 4, 6]), label="bits")
    ring = data.draw(st.integers(1, 2), label="ring")
    k = data.draw(st.integers(1, 6), label="k")
    lons = st.sampled_from([-179.0, -90.0, -45.0, 0.0, 0.5, 1.0, 45.0, 179.0])
    lats = st.sampled_from([-89.0, -45.0, 0.0, 0.5, 1.0, 45.0, 89.0])
    nq = data.draw(st.integers(0, 12), label="nq")
    nr = data.draw(st.integers(0, 30), label="nr")
    qlon = np.array(data.draw(st.lists(lons, min_size=nq, max_size=nq)))
    qlat = np.array(data.draw(st.lists(lats, min_size=nq, max_size=nq)))
    rlon = np.array(data.draw(st.lists(lons, min_size=nr, max_size=nr)))
    rlat = np.array(data.draw(st.lists(lats, min_size=nr, max_size=nr)))
    if nr and data.draw(st.booleans(), label="hot cell"):
        hot = np.arange(nr) < (3 * nr) // 4
        rlon[hot], rlat[hot] = 0.5, 0.5
    qcell = codec.encode(qlon, qlat, bits).astype(np.uint64)
    rcell = codec.encode(rlon, rlat, bits).astype(np.int64)
    for arr in (qlon, rlat):  # the cells stay; the distances turn NaN
        if arr.size and data.draw(st.booleans(), label="nan"):
            arr[data.draw(st.integers(0, arr.size - 1))] = np.nan
    rid = np.array(data.draw(st.lists(st.integers(0, 9), min_size=nr,
                                      max_size=nr)), dtype=np.int64)
    refs = codec.SortedLookup(pa.table({
        "cell": rcell, "lon": rlon, "lat": rlat, "ref_id": rid}), "cell")

    # one probe per distinct query cell gives the flat per-query probe's
    # candidates in the same order, so knn_adaptive and dwithin_ring,
    # which rank or filter them as they come, are unchanged
    qidx, ridx = knn_ops._ring_candidates(refs, qcell, bits, ring)
    flat_q, flat_cells = cells.ring_probe(qcell, bits, ring)
    pi, flat_r = refs.match(flat_cells)
    assert np.array_equal(qidx, flat_q[pi]) and np.array_equal(ridx, flat_r)

    counts = np.bincount(qidx, minlength=nq)
    for rows, width in knn_ops._pad_bins(counts, k):
        assert (counts[rows] > k).all()
        assert rows.size * width < 2 * counts[rows].sum()

    qsel, rsel, rank = knn_ops._ring_topk(refs, "ref_id", qcell, qlon, qlat,
                                          bits, ring, k)
    assert np.all(np.diff(qsel) >= 0)
    want = _brute_ring_knn(qcell, qlon, qlat, refs.column("cell"),
                           refs.column("lon"), refs.column("lat"),
                           refs.column("ref_id"), bits, ring)
    for i in range(nq):
        at = qsel == i
        assert rank[at].tolist() == list(range(1, min(k, len(want[i])) + 1))
        dx = qlon[i] - refs.column("lon")[rsel[at]]
        dy = qlat[i] - refs.column("lat")[rsel[at]]
        # (dist2, ref_id) order, NaN distances last and among themselves
        # in ref-id order, as the DuckDB twins give them
        top = want[i][:k]
        assert refs.column("ref_id")[rsel[at]].tolist() == [r for _, r in top]
        assert np.array_equal(dx * dx + dy * dy, [d for d, _ in top],
                              equal_nan=True)


def test_topk_ties_nan_distances_by_ref_id():
    ids = np.arange(7, -1, -1)
    sel, rank = knn_ops._topk_per_query(np.zeros(8, np.int64),
                                        np.full(8, np.nan), ids, 3)
    assert ids[sel].tolist() == [0, 1, 2] and rank.tolist() == [1, 2, 3]

"""Round-4 operators: grid DBSCAN and SemDeDup-shaped semantic dedup —
each verified against an independent numpy brute-force replica of the same
deterministic formulation (plus the DuckDB oracle via check_oracle)."""

import numpy as np
import pyarrow as pa


def _brute_dbscan(ids, lon, lat, eps, min_pts):
    d2 = (lon[:, None] - lon[None, :]) ** 2 + (lat[:, None] - lat[None, :]) ** 2
    nbr = d2 <= eps * eps  # includes self (diagonal is 0)
    cnt = nbr.sum(1)
    core = cnt >= min_pts
    comp = np.where(core, ids, np.iinfo(np.int64).max)
    # min-label propagation over core-core adjacency to fixpoint
    adj = nbr & core[:, None] & core[None, :]
    while True:
        nxt = comp.copy()
        for i in np.flatnonzero(core):
            nxt[i] = comp[adj[i]].min()
        if np.array_equal(nxt, comp):
            break
        comp = nxt
    lbl = np.full(ids.size, -1, dtype=np.int64)
    role = np.zeros(ids.size, dtype=np.int64)
    for i in range(ids.size):
        adj_core = nbr[i] & core
        if adj_core.any():
            lbl[i] = comp[adj_core].min()
            role[i] = 2 if core[i] else 1
    return lbl, role


def test_grid_dbscan_brute_parity(ray_session):
    import ray

    from georay import codec
    from georay.ops import dbscan as dbscan_ops

    rng = np.random.RandomState(7)
    n, bits = 300, 8
    # half clumped (dense clusters), half uniform (noise + borders)
    centers = rng.uniform([-150, -70], [150, 70], size=(6, 2))
    clumped = np.repeat(centers, 25, axis=0) + rng.randn(150, 2) * 1.5
    uniform = rng.uniform([-180, -90], [180, 90], size=(150, 2))
    pts = np.clip(np.concatenate([clumped, uniform]),
                  [-180, -90], [179.999, 89.999])
    lon, lat = pts[:, 0], pts[:, 1]
    ids = np.arange(n, dtype=np.int64) * 13 + 5  # non-contiguous ids
    cell = codec.encode(lon, lat, bits).astype(np.int64)
    t = pa.table({"id": ids, "lon": lon, "lat": lat, "cell": cell})
    ds = ray.data.from_arrow(t).repartition(4)

    eps, min_pts = 5.0, 4
    got = (
        dbscan_ops.grid_dbscan(ds, bits=bits, eps=eps, min_pts=min_pts,
                               id_col="id", num_partitions=4)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    lbl, role = _brute_dbscan(ids, lon, lat, eps, min_pts)
    assert got["id"].to_numpy().tolist() == ids.tolist()
    assert got["cluster"].to_numpy().tolist() == lbl.tolist()
    assert got["role"].to_numpy().tolist() == role.tolist()
    # the fixture must actually exercise all three roles
    assert set(role.tolist()) == {0, 1, 2}


def _brute_semantic_dedup(ids, mat, k, iters, scale, threshold):
    xi = np.floor(mat.astype(np.float64) * float(scale))
    order = np.argsort(ids, kind="stable")[:k]
    cent = xi[order].copy()
    for _ in range(iters):
        d = ((xi[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
        a = d.argmin(1)
        for j in range(k):
            m = a == j
            if m.any():
                cent[j] = xi[m].sum(0) / m.sum()
    d = ((xi[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
    a = d.argmin(1)
    nrm = mat.astype(np.float64)
    nrm = nrm / np.clip(np.linalg.norm(nrm, axis=1, keepdims=True),
                        1e-30, None)
    keep = np.ones(ids.size, dtype=np.int64)
    io = np.argsort(ids, kind="stable")
    for pos, i in enumerate(io):
        for j in io[:pos]:
            if a[j] == a[i] and nrm[i] @ nrm[j] >= threshold:
                keep[i] = 0
                break
    return a.astype(np.int64), keep


def test_semantic_dedup_brute_parity(ray_session):
    import ray

    from georay.ops import similarity as sim

    rng = np.random.RandomState(11)
    # moderate cluster tightness: within-cluster cosine spreads well BELOW
    # the 0.9 threshold, so only the planted dups dedup
    centers = rng.randn(5, 16) * 1.5
    mat = np.concatenate(
        [c + rng.randn(40, 16) * 0.8 for c in centers]
    ).astype(np.float32)
    # plant exact near-dups so keep=0 rows exist
    mat[7] = mat[3] + 0.01
    mat[55] = mat[51] * 1.02
    ids = np.arange(mat.shape[0], dtype=np.int64) * 3 + 1
    t = pa.table({"vec_id": ids, "embedding": list(mat)})
    ds = ray.data.from_arrow(t).repartition(4)

    k, iters, scale, thr = 5, 3, 1 << 20, 0.9
    got = (
        sim.semantic_dedup(ds, k=k, iters=iters, threshold=thr, scale=scale)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    a, keep = _brute_semantic_dedup(ids, mat, k, iters, scale, thr)
    assert got["vec_id"].to_numpy().tolist() == ids.tolist()
    assert got["cluster"].to_numpy().tolist() == a.tolist()
    assert got["keep"].to_numpy().tolist() == keep.tolist()
    assert (keep == 0).sum() >= 2  # the planted dups were caught


def test_bm25_brute_parity(ray_session):
    """bm25_topk vs an independent per-doc python replica (dict-based tf,
    math in the documented order) on a synthetic 60-doc corpus."""
    import ray

    from georay.ops import text as text_ops

    rng = np.random.RandomState(11)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "theta"]
    terms = ["alpha", "delta", "zeta"]
    texts, ids = [], []
    for i in range(60):
        n = rng.randint(3, 40)
        texts.append(" ".join(rng.choice(vocab, n)))
        ids.append(i + 1)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    )
    out = text_ops.bm25_topk(ds, terms, k=7).to_pandas()

    # brute replica
    toks = [t.split() for t in texts]
    dl = [len(t) for t in toks]
    nf = float(len(texts))
    avgdl = float(sum(dl)) / nf
    k1, b = 1.2, 0.75
    scores = {}
    for i, tk in enumerate(toks):
        s = 0.0
        base = k1 * ((1.0 - b) + b * (dl[i] / avgdl))
        for term in terms:
            tf = float(tk.count(term))
            df = float(sum(1 for t2 in toks if term in t2))
            idf = ((nf - df) + 0.5) / (df + 0.5) + 1.0
            s = s + idf * ((tf * (k1 + 1.0)) / (tf + base))
        scores[ids[i]] = s
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:7]
    got = list(zip(out["doc_id"], out["score"]))
    assert [w[0] for w in want] == [g[0] for g in got]
    np.testing.assert_array_equal(
        np.array([w[1] for w in want]), np.array([g[1] for g in got])
    )  # bit-exact, not allclose: the float contract is part of the operator
    assert list(out["rank"]) == list(range(1, 8))


def test_hotspot_gi_brute_parity(ray_session):
    """hotspot_gi vs a per-cell python replica; exercises edge cells,
    interior cells, and the zero-variance degenerate branch."""
    import math

    import ray

    from georay import codec
    from georay.ops import tiles as tiles_ops

    bits = 8  # 16x16 grid
    rng = np.random.RandomState(3)
    lon = rng.uniform(-180, 179.9, 400)
    lat = rng.uniform(-90, 89.9, 400)
    cell = codec.encode(lon, lat, bits).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"cell": cell}))
    out = tiles_ops.hotspot_gi(ds, bits).to_pandas().set_index(
        ["tile_x", "tile_y"]
    ).sort_index()

    # brute replica
    cells, counts = np.unique(cell.astype(np.uint64), return_counts=True)
    xs, ys = codec.deinterleave(cells, bits)
    grid = {(int(x), int(y)): int(n) for x, y, n in zip(xs, ys, counts)}
    k = len(grid)
    sum_x = sum(grid.values())
    sum_x2 = sum(n * n for n in grid.values())
    var_i = k * sum_x2 - sum_x * sum_x
    mean = float(sum_x) / float(k)
    s_over_k = math.sqrt(float(var_i)) / float(k)
    for (x, y), n in grid.items():
        w = s = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                v = grid.get((x + dx, y + dy))
                if v is not None:
                    w += 1
                    s += v
        kw = k * w - w * w
        if kw == 0 or var_i == 0:
            z = 0.0
        else:
            z = (float(s) - mean * float(w)) / (
                s_over_k * math.sqrt(float(kw) / (float(k) - 1.0))
            )
        row = out.loc[(x, y)]
        assert int(row["n"]) == n
        assert float(row["gi_z"]) == z, (x, y)  # bit-exact contract

    # degenerate: 2 cells, equal counts -> zero variance -> all z = 0.0
    lon2 = np.array([-170.0, -170.0, 10.0, 10.0])
    lat2 = np.array([-80.0, -80.0, 10.0, 10.0])
    ds2 = ray.data.from_arrow(pa.table(
        {"cell": codec.encode(lon2, lat2, bits).astype(np.int64)}
    ))
    out2 = tiles_ops.hotspot_gi(ds2, bits).to_pandas()
    assert len(out2) == 2 and (out2["gi_z"] == 0.0).all()


def test_skyline_brute_parity(ray_session):
    """Distributed skyline vs the O(n^2) dominance definition, with
    engineered duplicate rows and same-lo groups across many blocks."""
    import ray

    from georay.ops import skyline as sky

    rng = np.random.RandomState(5)
    lo = rng.randint(0, 50, 500).astype(np.float64) / 4.0
    hi = rng.randint(0, 40, 500).astype(np.int64)
    ids = np.arange(500, dtype=np.int64)
    # force exact duplicates on the frontier
    lo[10] = lo[11] = lo.min()
    hi[10] = hi[11] = hi.max()
    t = pa.table({"id": ids, "lo": lo, "hi": hi})
    ds = ray.data.from_arrow(t).repartition(13)
    got = sky.skyline(ds, "lo", "hi").to_pandas().sort_values("id")

    dominated = (
        (lo[None, :] <= lo[:, None]) & (hi[None, :] >= hi[:, None])
        & ((lo[None, :] < lo[:, None]) | (hi[None, :] > hi[:, None]))
    ).any(axis=1)
    want = ids[~dominated]
    assert list(got["id"]) == list(want)
    assert {10, 11} <= set(got["id"])  # both duplicate frontier rows kept


def test_pagerank_integer_brute_parity(ray_session):
    """ops.pagerank vs a dict-based integer replica on a small multigraph
    with dangling nodes, duplicate input edges, and a cycle."""
    import ray

    from georay.ops import pagerank as pr

    edges = [(1, 2), (1, 3), (2, 3), (3, 1), (4, 1), (1, 2), (5, 6),
             (6, 5), (7, 1)]  # 7,4 have out-edges; nothing points to 4,7
    src = np.array([e[0] for e in edges], np.int64)
    dst = np.array([e[1] for e in edges], np.int64)
    ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst})).repartition(3)
    got = pr.pagerank(ds, "src", "dst", iterations=3).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)

    dedup = sorted(set(edges))
    nodes = sorted({u for e in dedup for u in e})
    outd = {u: sum(1 for a, _ in dedup if a == u) for u in nodes}
    n = len(nodes)
    r = {u: pr.SCALE // n for u in nodes}
    for _ in range(3):
        dang = sum(r[u] for u in nodes if outd[u] == 0)
        ins = {u: 0 for u in nodes}
        for a, b in dedup:
            ins[b] += r[a] // outd[a]
        base = (15 * (pr.SCALE // n)) // 100
        r = {u: base + (85 * (ins[u] + dang // n)) // 100 for u in nodes}

    assert list(got["node"]) == nodes
    assert list(got["outd"]) == [outd[u] for u in nodes]
    assert list(got["r"]) == [r[u] for u in nodes]
    # total mass stays ~SCALE (floor slack only)
    assert 0 <= pr.SCALE - got["r"].sum() < 100 * n


def test_weighted_sample_brute_parity(ray_session):
    """weighted_sample vs a per-row replica; checks the weight bias
    (inclusion counts correlate with weight deciles) and determinism
    across partitionings."""
    import ray

    from georay.ops import sketch as sketch_ops
    from georay.ops.sketch import splitmix64

    n = 5000
    keys = np.arange(1, n + 1, dtype=np.int64)
    rng = np.random.RandomState(9)
    w = rng.uniform(0.5, 100.0, n)
    t = pa.table({"k": keys, "w": w})

    h = splitmix64(keys.view(np.uint64))
    u = (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    p = u / w
    order = np.lexsort((keys, p))[:200]
    want_keys = keys[order]

    for parts in (1, 7):
        ds = ray.data.from_arrow(t).repartition(parts)
        got = sketch_ops.weighted_sample(ds, "k", "w", k=200).to_pandas()
        assert list(got["k"]) == list(want_keys)
        np.testing.assert_array_equal(got["priority"].to_numpy(), p[order])
        assert list(got["rank"]) == list(range(1, 201))

    # bias sanity: sampled rows skew heavy — mean weight of the sample
    # must exceed the population mean
    assert w[order].mean() > w.mean() * 1.2


def test_adaptive_cells_partition_property(ray_session):
    """Leaves form an exact partition: every point maps to exactly one
    leaf, leaf counts match, and no non-forced leaf exceeds the
    threshold."""
    import ray

    from georay import codec
    from georay.ops import tiles as tiles_ops

    bits, levels, thr = 10, 3, 30
    rng = np.random.RandomState(17)
    lon = rng.uniform(-180, 179.9, 3000)
    lat = rng.uniform(-90, 89.9, 3000)
    # skew: pile a third of the mass into one spot
    lon[:1000] = -74.006
    lat[:1000] = 40.7128
    cell = codec.encode(lon, lat, bits).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"cell": cell})).repartition(5)
    out = tiles_ops.adaptive_cells(ds, bits, levels=levels,
                                   threshold=thr).to_pandas()

    assert out["n"].sum() == 3000
    # each point's finest cell must be under exactly one leaf
    xs, ys = codec.deinterleave(cell.astype(np.uint64), bits)
    leaves = {(int(b), int(x), int(y))
              for b, x, y in zip(out["cell_bits"], out["tile_x"], out["tile_y"])}
    assert len(leaves) == len(out)
    for x, y in zip(xs, ys):
        owners = [lb for lb in (10, 8, 6)
                  if (lb, int(x) >> ((10 - lb) // 2),
                      int(y) >> ((10 - lb) // 2)) in leaves]
        assert len(owners) == 1, (x, y, owners)
    # only forced (finest-level) leaves may exceed the threshold
    over = out[out["n"] > thr]
    assert (over["cell_bits"] == bits).all()
    # the hot spot actually split to the finest precision
    hot_cell = codec.encode(np.array([-74.006]), np.array([40.7128]), bits)
    hx, hy = codec.deinterleave(hot_cell, bits)
    assert (10, int(hx[0]), int(hy[0])) in leaves


def test_tile_trend_brute_parity(ray_session):
    """tile_trend vs the closed-form rational slope computed per group in
    python bigints (and cross-checked against numpy lstsq)."""
    import ray

    from georay.ops import tiles as tiles_ops

    rng = np.random.RandomState(23)
    cell = rng.randint(0, 5, 400).astype(np.int64)
    x = rng.randint(0, 720, 400).astype(np.int64)
    y = (x * (cell + 1) * 10 + rng.randint(-50, 50, 400)).astype(np.int64)
    # degenerate group: constant x
    cell = np.concatenate([cell, np.full(3, 99, np.int64)])
    x = np.concatenate([x, np.full(3, 5, np.int64)])
    y = np.concatenate([y, np.array([1, 2, 3], np.int64)])
    ds = ray.data.from_arrow(
        pa.table({"cell": cell, "x": x, "y": y})
    ).repartition(6)
    got = tiles_ops.tile_trend(ds).to_pandas().set_index("cell").sort_index()

    for c in np.unique(cell):
        m = cell == c
        n, sx, sy = int(m.sum()), int(x[m].sum()), int(y[m].sum())
        sxy, sxx = int((x[m] * y[m]).sum()), int((x[m] * x[m]).sum())
        den = n * sxx - sx * sx
        want = float(n * sxy - sx * sy) / float(den) if den else 0.0
        assert float(got.loc[c, "slope"]) == want
        assert int(got.loc[c, "n"]) == n
        if den:  # sanity vs lstsq
            lst = np.polyfit(x[m].astype(float), y[m].astype(float), 1)[0]
            assert abs(lst - want) < 1e-6 * max(1.0, abs(want))
    assert float(got.loc[99, "slope"]) == 0.0


def test_transitions_brute_parity(ray_session):
    """transitions vs a per-user python bigram replica, including
    same-timestamp ordering by the order column and single-event users."""
    import ray

    from georay.ops import window as win

    rng = np.random.RandomState(31)
    rows = []
    eid = 0
    for user in range(1, 40):
        for _ in range(rng.randint(1, 12)):
            eid += 1
            rows.append((user, rng.randint(0, 50), eid,
                         ["view", "click", "buy"][rng.randint(0, 3)]))
    # two events with the SAME ts for one user: order column must break it
    rows.append((7, 99, eid + 1, "view"))
    rows.append((7, 99, eid + 2, "buy"))
    t = pa.table({
        "u": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.int64()),
        "eid": pa.array([r[2] for r in rows], pa.int64()),
        "et": pa.array([r[3] for r in rows]),
    })
    ds = ray.data.from_arrow(t).repartition(5)
    got = win.transitions(ds, "u", "ts", "eid", "et").to_pandas()
    got = got.set_index(["from_type", "to_type"]).sort_index()

    from collections import Counter, defaultdict
    seqs = defaultdict(list)
    for u, ts, eid_, et in rows:
        seqs[u].append((ts, eid_, et))
    want = Counter()
    for u, evs in seqs.items():
        evs.sort()
        for a, b in zip(evs, evs[1:]):
            want[(a[2], b[2])] += 1
    tot = Counter()
    for (f, _), n in want.items():
        tot[f] += n
    assert len(got) == len(want)
    for (f, to), n in want.items():
        row = got.loc[(f, to)]
        assert int(row["n"]) == n
        assert int(row["from_total"]) == tot[f]
        assert float(row["prob"]) == float(n) / float(tot[f])


def test_idw_brute_parity(ray_session):
    """idw_broadcast vs a per-query python replica with the same fixed
    accumulation order; includes a query coincident with a data point
    (d2=0 -> Laplace +1 keeps it finite and dominant)."""
    import ray

    from georay.ops import knn as knn_ops

    rng = np.random.RandomState(41)
    n = 300
    ids = np.arange(1, n + 1, dtype=np.int64)
    mx = rng.randint(-180000, 180000, n).astype(np.int64)
    my = rng.randint(-90000, 90000, n).astype(np.int64)
    v = rng.randint(10, 500000, n).astype(np.int64)
    mx[17], my[17] = 5000, 5000  # exactly at query 1
    q_ids = np.array([0, 1], np.int64)
    q_mx = np.array([-100000, 5000], np.int64)
    q_my = np.array([40000, 5000], np.int64)

    for parts in (1, 9):
        ds = ray.data.from_arrow(
            pa.table({"id": ids, "mx": mx, "my": my, "v": v})
        ).repartition(parts)
        got = knn_ops.idw_broadcast(ds, q_ids, q_mx, q_my, k=5).to_pandas()
        got = got.set_index("query_id").sort_index()
        for qi in range(2):
            d2 = (mx - q_mx[qi]) ** 2 + (my - q_my[qi]) ** 2
            sel = np.lexsort((ids, d2))[:5]
            num = den = 0.0
            for i in sel:
                dp1 = float(d2[i] + 1)
                num = num + float(v[i]) / dp1
                den = den + 1.0 / dp1
            assert float(got.loc[q_ids[qi], "idw"]) == num / den
            assert int(got.loc[q_ids[qi], "n_used"]) == 5
    # the coincident point dominates query 1
    assert abs(got.loc[1, "idw"] - v[17]) < 1.0


def test_caption_geoparse_detects_corruption(ray_session):
    """The geoparse consistency counter must actually catch wrong captions
    (negative control for the all-consistent fixture)."""
    import ray

    from georay import codec
    from georay.ops import window as _  # noqa: F401 (module-level import rule)
    from georay.queries import q_caption_geoparse  # noqa: F401

    rng = np.random.RandomState(43)
    lon = rng.uniform(-180, 179.9, 200)
    lat = rng.uniform(-90, 89.9, 200)
    gh = codec.encode_str(lon, lat, 5).astype("U5")
    caps = np.array([f"caption for img{i:012d}: {g}"
                     for i, g in enumerate(gh)], object)
    caps[5] = caps[5][:-5] + "zzzzz"  # corrupt one
    t = pa.table({"caption": pa.array(list(caps), pa.string()),
                  "lon": lon, "lat": lat})

    # replicate the query's partial+aggregate over an in-memory table
    from ray.data.aggregate import Sum
    import pandas as pd
    from georay.runtime import table_from_pandas

    def partial(df):
        extracted = df["caption"].str[-5:].to_numpy()
        expected = codec.encode_str(
            df["lon"].to_numpy(), df["lat"].to_numpy(), 5).astype("U5")
        ok = (extracted == expected).astype(np.int64)
        gh1 = pd.Series(extracted).str[0].to_numpy()
        out = pd.DataFrame({"gh1": gh1, "p_n": 1, "p_ok": ok}).groupby(
            "gh1", as_index=False).sum()
        return table_from_pandas(out.astype({"p_n": np.int64}))

    got = (
        ray.data.from_arrow(t).repartition(4)
        .map_batches(partial, batch_format="pandas")
        .groupby("gh1")
        .aggregate(Sum("p_n", alias_name="n"), Sum("p_ok", alias_name="n_ok"))
        .to_pandas()
    )
    assert got["n"].sum() == 200
    assert got["n"].sum() - got["n_ok"].sum() == 1  # exactly the corruption


def test_ann_mutual_symmetry(ray_session):
    """Every emitted pair must be reciprocal top-k, every reciprocal
    pair must be emitted (brute verification on a small embedding set)."""
    import ray

    from georay.queries import q_ann_mutual, ANN_K  # noqa: F401

    # build brute ranks on the sf0.001 subset and compare
    import pyarrow.parquet as pq
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    vid = t["vec_id"].to_numpy()
    mask = vid % 10 == 0
    ids = vid[mask]
    from georay.ops.similarity import emb_matrix, _normalize
    m = _normalize(emb_matrix(t["embedding"])[mask])
    sims = m @ m.T
    np.fill_diagonal(sims, -np.inf)
    topk = {}
    for i, q in enumerate(ids):
        order = np.lexsort((ids, -sims[i]))[:ANN_K]
        topk[int(q)] = set(int(ids[j]) for j in order)
    want = {(a, b) for a in topk for b in topk[a]
            if a < b and a in topk[b]}

    got = q_ann_mutual("/root/testdata/sf0.001").to_pandas()
    got_pairs = set(zip(got["id_a"].astype(int), got["id_b"].astype(int)))
    assert got_pairs == want
    assert ((got["rank_ab"] >= 1) & (got["rank_ab"] <= ANN_K)).all()
    assert ((got["rank_ba"] >= 1) & (got["rank_ba"] <= ANN_K)).all()


def test_colocation_brute_parity(ray_session):
    """colocation lift vs a set-based python replica on the sf0.001
    events table (exact integers + single-division float)."""
    import duckdb

    from georay import codec
    from georay.ops import spatial
    from georay.queries import q_colocation, COLOC_TYPES, BITS_TILE

    sf = "/root/testdata/sf0.001"
    got = q_colocation(sf).sort_values(["type_a", "type_b"]).reset_index(
        drop=True)

    df = duckdb.sql(
        f"SELECT user_id, event_type FROM "
        f"read_parquet('{sf}/events.parquet')").df()
    lon, lat = spatial.synth_lonlat(df["user_id"].to_numpy())
    cell = codec.encode(lon, lat, BITS_TILE).astype(np.int64)
    by_type = {t: set(cell[df["event_type"].to_numpy() == t])
               for t in COLOC_TYPES}
    k = len(set(cell))
    rows = []
    for i, a in enumerate(COLOC_TYPES):
        for b in COLOC_TYPES[i + 1:]:
            n_ab = len(by_type[a] & by_type[b])
            if n_ab:
                n_a, n_b = len(by_type[a]), len(by_type[b])
                rows.append((a, b, n_ab, n_a, n_b,
                             (float(n_ab) * float(k)) / float(n_a * n_b)))
    assert len(got) == len(rows)
    for (a, b, n_ab, n_a, n_b, lift), (_, r) in zip(rows, got.iterrows()):
        assert (r["type_a"], r["type_b"]) == (a, b)
        assert (int(r["n_ab"]), int(r["n_a"]), int(r["n_b"])) == (n_ab, n_a, n_b)
        assert float(r["lift"]) == lift


def test_tile_rollup_level_consistency(ray_session):
    """Every coarser level must re-aggregate exactly from level 5, and the
    level-0 row is the whole-table total."""
    from georay.queries import q_tile_rollup, ROLLUP_LEVELS

    df = q_tile_rollup("/root/testdata/sf0.001").to_pandas()
    l5 = df[df["level"] == 5]
    for lv in ROLLUP_LEVELS:
        sub = df[df["level"] == lv]
        assert sub["n"].sum() == l5["n"].sum()
        assert sub["sum_cents"].sum() == l5["sum_cents"].sum()
        d = 1 << (5 - lv)
        roll = (
            l5.assign(tx=l5["tile_x"] // d, ty=l5["tile_y"] // d)
            .groupby(["tx", "ty"], as_index=False)[["n", "sum_cents"]].sum()
            .sort_values(["tx", "ty"]).reset_index(drop=True)
        )
        got = sub.sort_values(["tile_x", "tile_y"]).reset_index(drop=True)
        assert (got["tile_x"].to_numpy() == roll["tx"].to_numpy()).all()
        assert (got["n"].to_numpy() == roll["n"].to_numpy()).all()
        assert (got["sum_cents"].to_numpy()
                == roll["sum_cents"].to_numpy()).all()
    total = df[df["level"] == 0]
    assert len(total) == 1 and (total["tile_x"] == 0).all()


def test_triangle_count_brute_parity(ray_session):
    """Pipeline triangle count vs a set-based brute replica of the same
    hash-derived graph at sf0.001."""
    import duckdb

    from georay.ops.sketch import splitmix64
    from georay.queries import q_triangle_count, TRI_DEG

    sf = "/root/testdata/sf0.001"
    got = q_triangle_count(sf)

    keys = duckdb.sql(
        f"SELECT c_custkey FROM read_parquet('{sf}/customer.parquet')"
    ).df()["c_custkey"].to_numpy().astype(np.int64)
    n = keys.size
    edges = set()
    for u in keys:
        for j in range(TRI_DEG):
            d = int(splitmix64(np.uint64(u * 4 + j)) % np.uint64(n)) + 1
            if d != u:
                edges.add((min(int(u), d), max(int(u), d)))
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = sum(
        1 for a, b in edges for c in adj[a]
        if c > b and c in adj[b]
    )
    assert int(got["n_nodes"].iloc[0]) == n
    assert int(got["n_edges"].iloc[0]) == len(edges)
    assert int(got["n_triangles"].iloc[0]) == tri


def test_cohort_retention_offset_zero_is_cohort_size(ray_session):
    """Offset-0 counts must equal cohort sizes (every user is active on
    their own first day), offsets are non-negative, and total user-days
    are conserved."""
    import duckdb

    from georay.queries import q_cohort_retention, DAY_US

    sf = "/root/testdata/sf0.001"
    got = q_cohort_retention(sf).to_pandas()
    assert (got["day_offset"] >= 0).all()

    df = duckdb.sql(
        f"SELECT DISTINCT user_id, epoch_us(ts) // {DAY_US} AS day "
        f"FROM read_parquet('{sf}/events.parquet')").df()
    cohort = df.groupby("user_id")["day"].min()
    sizes = cohort.value_counts()
    z = got[got["day_offset"] == 0].set_index("cohort_day")["n_users"]
    assert sorted(z.index) == sorted(sizes.index)
    for cd, n in sizes.items():
        assert int(z.loc[cd]) == int(n)
    assert int(got["n_users"].sum()) == len(df)


def test_hilbert_bijection_adjacency_roundtrip():
    """Full enumeration at order 4: the key is a bijection onto
    [0, 4^order), consecutive indices are 4-adjacent grid neighbors (the
    Hilbert locality property Morton lacks), and xy_from_hilbert inverts."""
    import numpy as np

    from georay.ops.hilbert import hilbert_from_xy, xy_from_hilbert

    order, n = 4, 16
    xx, yy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = hilbert_from_xy(xx.ravel(), yy.ravel(), order)
    assert sorted(d) == list(range(n * n))
    idx = np.argsort(d)
    px, py = xx.ravel()[idx], yy.ravel()[idx]
    assert (np.abs(np.diff(px)) + np.abs(np.diff(py)) == 1).all()
    rx, ry = xy_from_hilbert(d, order)
    assert (rx == xx.ravel()).all() and (ry == yy.ravel()).all()


def test_hilbert_canonical_order1():
    import numpy as np

    from georay.ops.hilbert import hilbert_from_xy

    d = hilbert_from_xy(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0]), 1)
    assert d.tolist() == [0, 1, 2, 3]


def test_hilbert_sort_locality(ray_session):
    """hilbert_sort output is key-ordered, and equal-size key ranges have
    far smaller bounding boxes than the unsorted stream (the partition-
    pruning payoff)."""
    import numpy as np
    import ray

    from georay.ops.hilbert import hilbert_from_lonlat, hilbert_sort
    import pyarrow as pa

    rng = np.random.default_rng(7)
    lon = rng.uniform(-180, 180, 4096)
    lat = rng.uniform(-90, 90, 4096)
    ds = ray.data.from_arrow(pa.table({"lon": lon, "lat": lat}))
    out = hilbert_sort(ds.repartition(8), bits=16).to_pandas()
    k = out["hkey"].to_numpy()
    assert (np.diff(k) >= 0).all()
    assert (np.sort(k) == np.sort(hilbert_from_lonlat(lon, lat, 16))).all()

    def chunk_area(lon_v, lat_v, parts):
        a = 0.0
        for c in np.array_split(np.arange(len(lon_v)), parts):
            a += (lon_v[c].max() - lon_v[c].min()) * (lat_v[c].max() - lat_v[c].min())
        return a

    sorted_area = chunk_area(out["lon"].to_numpy(), out["lat"].to_numpy(), 16)
    unsorted_area = chunk_area(lon, lat, 16)
    assert sorted_area < unsorted_area / 4


def test_fuzzy_verify_edit1_exact():
    """verify_edit1 agrees with a classic DP Levenshtein on random pairs."""
    import numpy as np

    from georay.ops.fuzzy import verify_edit1

    def lev(a, b):
        m, n = len(a), len(b)
        prev = list(range(n + 1))
        for i in range(1, m + 1):
            cur = [i] + [0] * n
            for j in range(1, n + 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (a[i - 1] != b[j - 1]))
            prev = cur
        return prev[n]

    rng = np.random.default_rng(11)
    alpha = np.array(list("abc"))
    pa_, pb_ = [], []
    for _ in range(400):
        la = rng.integers(0, 6)
        lb = rng.integers(0, 6)
        pa_.append("".join(alpha[rng.integers(0, 3, la)]))
        pb_.append("".join(alpha[rng.integers(0, 3, lb)]))
    got = verify_edit1(np.array(pa_, dtype=object), np.array(pb_, dtype=object))
    want = np.array([lev(a, b) <= 1 for a, b in zip(pa_, pb_)])
    assert (got == want).all()


def test_fuzzy_edit1_pairs_brute_parity(ray_session):
    """edit1_pairs over a random corpus == brute-force all-pairs check,
    including duplicates in the input (distinct-pair semantics)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from georay.ops import fuzzy
    from georay.ops.fuzzy import verify_edit1

    rng = np.random.default_rng(3)
    alpha = np.array(list("ab"))
    corpus = ["".join(alpha[rng.integers(0, 2, rng.integers(1, 7))])
              for _ in range(500)]
    ds = ray.data.from_arrow(pa.table({"s": np.array(corpus, dtype=object)}))
    out = fuzzy.edit1_pairs(ds.repartition(4), "s").to_pandas()
    got = set(zip(out["a"], out["b"]))

    uniq = sorted(set(corpus))
    ia, ib = np.triu_indices(len(uniq), k=1)
    ua = np.array(uniq, dtype=object)
    ok = verify_edit1(ua[ia], ua[ib])
    want = {(ua[i], ua[j]) for i, j in zip(ia[ok], ib[ok])}
    assert got == want and len(want) > 50


def test_kcore_brute_parity(ray_session):
    """Replicate the 3-round K=5 peeling in plain numpy on the sf0.001
    hash graph and require exact (node, deg) parity with the distributed
    join-based peeling."""
    import duckdb

    from georay.ops.sketch import splitmix64
    from georay.queries import q_kcore, KCORE_K, KCORE_ROUNDS, TRI_DEG

    sf = "/root/testdata/sf0.001"
    n = duckdb.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf}/customer.parquet')"
    ).fetchone()[0]
    keys = duckdb.sql(
        f"SELECT c_custkey FROM read_parquet('{sf}/customer.parquet')"
    ).fetchdf()["c_custkey"].to_numpy().astype(np.int64)

    a = np.repeat(keys, TRI_DEG)
    seed = a * 4 + np.tile(np.arange(TRI_DEG, dtype=np.int64), keys.size)
    d = (splitmix64(seed.astype(np.uint64)) % np.uint64(n)).astype(
        np.int64) + 1
    lo, hi = np.minimum(a, d), np.maximum(a, d)
    m = lo != hi
    ek = np.unique(lo[m] * (np.int64(1) << 32) + hi[m])
    ea, eb = ek >> 32, ek & ((np.int64(1) << 32) - 1)

    for _ in range(KCORE_ROUNDS):
        nodes = np.concatenate([ea, eb])
        u, cnt = np.unique(nodes, return_counts=True)
        surv = set(u[cnt >= KCORE_K].tolist())
        keep = np.array([x in surv and y in surv for x, y in zip(ea, eb)])
        ea, eb = ea[keep], eb[keep]

    u, cnt = np.unique(np.concatenate([ea, eb]), return_counts=True)
    want = dict(zip(u.tolist(), cnt.tolist()))

    got = q_kcore(sf).to_pandas()
    assert len(got) == len(want)
    for _, r in got.iterrows():
        assert want[int(r.node)] == int(r.deg)


def test_brute_topk_hard_negative_mask(ray_session):
    # label-masked top-k: neighbors must all carry a DIFFERENT label than
    # the query, and match a numpy oracle with the same mask
    import ray

    from georay.ops import similarity as sim

    rng = np.random.RandomState(7)
    n, d = 400, 16
    mat = rng.randn(n, d).astype(np.float32)
    ids = np.arange(n, dtype=np.int64) * 3 + 1
    labels = (np.arange(n, dtype=np.int64) % 5).astype(np.int32)
    t = pa.table({
        "vec_id": ids,
        "embedding": pa.array(list(mat), type=pa.list_(pa.float32())),
        "label": labels,
    })
    qsel = np.arange(n) % 40 == 0
    ds = ray.data.from_arrow(t).repartition(4)
    got = sim.brute_topk(ds, ids[qsel], mat[qsel], k=4,
                         query_labels=labels[qsel]).to_pandas()

    mn = mat.astype(np.float64)
    mn = mn / np.linalg.norm(mn, axis=1, keepdims=True)
    sims = mn[qsel] @ mn.T
    sims[np.equal.outer(ids[qsel], ids)] = -np.inf
    sims[np.equal.outer(labels[qsel], labels)] = -np.inf
    lab_of = dict(zip(ids.tolist(), labels.tolist()))
    for r, (q, ql) in enumerate(zip(ids[qsel], labels[qsel])):
        order = np.lexsort((ids, -sims[r]))[:4]
        want = ids[order].tolist()
        have = got[got["query_id"] == q].sort_values("rank")["neighbor_id"].tolist()
        assert have == want, f"query {q}"
        assert all(lab_of[h] != ql for h in have)


def test_variogram_matches_brute(ray_session):
    # half-ring scatter + join vs an O(n²) numpy pair loop on a small raster
    import ray

    from georay import codec
    from georay.ops import tiles

    rng = np.random.RandomState(3)
    bits = 10
    cells = np.unique(rng.randint(0, 1 << bits, size=60).astype(np.int64))
    vals = rng.randint(1, 50, size=cells.size).astype(np.int64)
    t = pa.table({"cell": cells, "n": vals})
    out = tiles.variogram(
        ray.data.from_arrow(t).repartition(3), bits, max_lag=3
    ).to_pandas().set_index("d2").sort_index()

    x, y = codec.deinterleave(cells.astype(np.uint64), bits)
    want = {}
    for i in range(cells.size):
        for j in range(i + 1, cells.size):
            d2 = int((int(x[i]) - int(x[j])) ** 2 + (int(y[i]) - int(y[j])) ** 2)
            if d2 <= 9:
                n, s = want.get(d2, (0, 0))
                want[d2] = (n + 1, s + (int(vals[i]) - int(vals[j])) ** 2)
    assert dict(zip(out.index, zip(out["n_pairs"], out["sq_sum"]))) == want


def test_segment_crossings_matches_brute(ray_session):
    # cell-cover candidates + orientation refine vs the O(n²) sign test
    import ray

    from georay.ops import join as join_ops

    rng = np.random.RandomState(11)
    n = 80
    t = pa.table({
        "sid": np.arange(1, n + 1, dtype=np.int64),
        "x1": rng.randint(0, 100, n).astype(np.int64),
        "y1": rng.randint(0, 100, n).astype(np.int64),
        "x2": rng.randint(0, 100, n).astype(np.int64),
        "y2": rng.randint(0, 100, n).astype(np.int64),
    })
    got = join_ops.segment_crossings(
        ray.data.from_arrow(t).repartition(3),
        "sid", "x1", "y1", "x2", "y2", cell_shift=4,
    ).to_pandas()
    got_pairs = set(zip(got["a"], got["b"]))

    x1, y1 = t["x1"].to_numpy(), t["y1"].to_numpy()
    x2, y2 = t["x2"].to_numpy(), t["y2"].to_numpy()

    def o(ox, oy, ax, ay, bx, by):
        return np.sign((ax - ox) * (by - oy) - (ay - oy) * (bx - ox))

    want = set()
    for i in range(n):
        for j in range(i + 1, n):
            d1 = o(x1[i], y1[i], x2[i], y2[i], x1[j], y1[j])
            d2 = o(x1[i], y1[i], x2[i], y2[i], x2[j], y2[j])
            d3 = o(x1[j], y1[j], x2[j], y2[j], x1[i], y1[i])
            d4 = o(x1[j], y1[j], x2[j], y2[j], x2[i], y2[i])
            if d1 * d2 < 0 and d3 * d4 < 0:
                want.add((i + 1, j + 1))
    assert got_pairs == want and len(want) > 50


def test_chunk_stats_matches_python(ray_session):
    # zero-copy buffer arithmetic vs a plain python substring loop
    import ray

    from georay.ops import text as text_ops

    rng = np.random.RandomState(5)
    texts = []
    for i in range(50):
        n = rng.randint(1, 400)
        texts.append("".join(rng.choice(list("ab de fg "), n)))
    t = pa.table({"doc_id": np.arange(50, dtype=np.int64),
                  "text": pa.array(texts)})
    got = text_ops.chunk_stats(
        ray.data.from_arrow(t).repartition(3), window=100, stride=60
    ).to_pandas().sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)

    rows = []
    for d, s in enumerate(texts):
        start = 0
        idx = 0
        while start < len(s) or idx == 0:
            chunk = s[start:start + 100]
            if idx > 0 and not chunk:
                break
            rows.append((d, idx, start, len(chunk), chunk.count(" ")))
            idx += 1
            start += 60
    import pandas as pd
    want = pd.DataFrame(rows, columns=["doc_id", "chunk_idx", "start",
                                       "clen", "n_spaces"])
    assert got.astype("int64").equals(want.astype("int64"))


def test_resample_gapfill_matches_pandas(ray_session):
    import pandas as pd
    import ray

    from georay.ops import window as window_ops

    rng = np.random.RandomState(9)
    n = 500
    t = pa.table({
        "k": rng.randint(0, 12, n).astype(np.int64),
        "ts": rng.randint(0, 40, n).astype(np.int64) * 10 + rng.randint(0, 10, n),
        "v": rng.randint(-5, 20, n).astype(np.int64),
    })
    got = window_ops.resample_gapfill(
        ray.data.from_arrow(t).repartition(4), "k", "ts", "v", bucket_us=10
    ).to_pandas().sort_values(["k", "bucket"]).reset_index(drop=True)

    df = t.to_pandas()
    df["bucket"] = df["ts"] // 10
    agg = df.groupby(["k", "bucket"]).agg(
        n=("v", "size"), v=("v", "sum")).reset_index()
    rows = []
    for k, g in agg.groupby("k"):
        idx = dict(zip(g["bucket"], zip(g["n"], g["v"])))
        for b in range(g["bucket"].min(), g["bucket"].max() + 1):
            nn, vv = idx.get(b, (0, 0))
            rows.append((k, b, nn, vv))
    want = pd.DataFrame(rows, columns=["k", "bucket", "n", "v"])
    assert got.astype("int64").equals(want.astype("int64"))


def test_octant_codes_partition_plane():
    # every integer (dx, dy) maps to exactly one sector; spot geometry pins
    from georay.ops.trajectory import octant_codes

    g = np.arange(-6, 7)
    dx, dy = np.meshgrid(g, g)
    oc = octant_codes(dx.ravel(), dy.ravel())
    assert set(oc) == set(range(9))
    def one(a, b):
        return int(octant_codes(np.array([a]), np.array([b]))[0])
    assert one(0, 0) == 8
    assert one(5, 0) == 0 and one(5, 4) == 0      # E
    assert one(5, 5) == 1 and one(1, 5) == 1      # NE includes 45° and up
    assert one(0, 5) == 2 and one(-4, 5) == 2     # N
    assert one(-5, 5) == 3 and one(-5, 1) == 3    # NW includes 135°
    assert one(-5, 0) == 4 and one(-5, -4) == 4   # W
    assert one(-5, -5) == 5 and one(-1, -5) == 5  # SW
    assert one(0, -5) == 6 and one(4, -5) == 6    # S
    assert one(5, -5) == 7 and one(5, -1) == 7    # SE


def test_grid_bfs_matches_brute(ray_session):
    # broadcast-membership frontier BFS vs a python queue BFS
    from collections import deque

    import ray

    from georay import codec
    from georay.ops import tiles

    rng = np.random.RandomState(21)
    bits = 10
    cells = np.unique(rng.randint(0, 1 << bits, size=300).astype(np.int64))
    n_src = (rng.rand(cells.size) < 0.05).astype(np.int64)
    if n_src.sum() == 0:
        n_src[0] = 1
    t = pa.table({"cell": cells, "n": np.ones(cells.size, np.int64),
                  "n_src": n_src})
    got = tiles.grid_bfs(ray.data.from_arrow(t).repartition(3), bits,
                         max_hops=3).to_pandas()
    got_map = dict(zip(got["cell"], got["hops"]))

    occ = set(cells.tolist())
    dist = {int(c): 0 for c, s in zip(cells, n_src) if s}
    dq = deque(dist)
    while dq:
        c = dq.popleft()
        if dist[c] >= 3:
            continue
        nbr, valid = codec.neighbors(np.array([c], np.uint64), bits)
        for nb in nbr[valid].tolist():
            if nb in occ and nb not in dist:
                dist[nb] = dist[c] + 1
                dq.append(nb)
    assert got_map == dist and len(dist) > 20


def test_nearest_segment_matches_brute(ray_session):
    # exact rational argmin vs a float brute force with exact tie recheck
    from fractions import Fraction

    import ray

    from georay.ops import knn as knn_ops

    rng = np.random.RandomState(13)
    ns, npts = 25, 200
    segs = pa.table({
        "sid": np.arange(1, ns + 1, dtype=np.int64),
        "x1": rng.randint(0, 50, ns).astype(np.int64),
        "y1": rng.randint(0, 50, ns).astype(np.int64),
        "x2": rng.randint(0, 50, ns).astype(np.int64),
        "y2": rng.randint(0, 50, ns).astype(np.int64),
    })
    pts = pa.table({
        "pid": np.arange(npts, dtype=np.int64),
        "px": rng.randint(0, 50, npts).astype(np.int64),
        "py": rng.randint(0, 50, npts).astype(np.int64),
    })
    got = knn_ops.nearest_segment(
        ray.data.from_arrow(pts).repartition(3), segs, "pid", "px", "py"
    ).to_pandas().set_index("pid").sort_index()

    s = segs.to_pandas()
    for _, p in pts.to_pandas().iterrows():
        best = None
        for _, r in s.iterrows():
            vx, vy = r.x2 - r.x1, r.y2 - r.y1
            td = vx * vx + vy * vy
            wx, wy = p.px - r.x1, p.py - r.y1
            if td == 0:
                d2 = Fraction(int(wx * wx + wy * wy))
            else:
                tn = wx * vx + wy * vy
                if tn <= 0:
                    d2 = Fraction(int(wx * wx + wy * wy))
                elif tn >= td:
                    ux, uy = p.px - r.x2, p.py - r.y2
                    d2 = Fraction(int(ux * ux + uy * uy))
                else:
                    d2 = Fraction(int((wx * wx + wy * wy) * td - tn * tn),
                                  int(td))
            if best is None or d2 < best[0] or (d2 == best[0]
                                                and r.sid < best[1]):
                best = (d2, int(r.sid))
        row = got.loc[p.pid]
        assert int(row["sid"]) == best[1], p.pid
        assert Fraction(int(row["d2_num"]), int(row["d2_den"])) == best[0]


def test_accessibility_2sfca_matches_brute(ray_session):
    """2SFCA vs an O(n*m) numpy replica: same integer terms, same pair
    set, on synthetic points with multi-cell radius and suppliers whose
    catchments overlap."""
    import ray

    from georay.ops import knn as knn_ops
    from georay.ops import spatial as sp

    bits, radius, scale = 8, 9.0, 1_000_000
    dk = np.arange(400, dtype=np.int64)
    sk = np.arange(30, dtype=np.int64) + 7_000
    dem = sp.add_cell(sp.add_synth_points(pa.table({"did": dk}), "did"), bits)
    dem = dem.append_column("pop", pa.array(dk % 11 + 1))
    sup = sp.add_cell(sp.add_synth_points(pa.table({"sid": sk}), "sid"), bits)
    sup = sup.append_column("cap", pa.array(sk % 7 + 1))

    out = knn_ops.accessibility_2sfca(
        ray.data.from_arrow(dem).repartition(5), sup, bits=bits,
        radius=radius, demand_id="did", pop_col="pop",
        supply_id="sid", cap_col="cap", scale=scale,
    ).to_pandas().sort_values("did").reset_index(drop=True)

    dlon, dlat = dem["lon"].to_numpy(), dem["lat"].to_numpy()
    slon, slat = sup["lon"].to_numpy(), sup["lat"].to_numpy()
    pop = dem["pop"].to_numpy()
    cap = sup["cap"].to_numpy()
    d2 = (dlon[:, None] - slon[None, :]) ** 2 + (dlat[:, None] - slat[None, :]) ** 2
    within = d2 <= radius * radius
    den = (pop[:, None] * within).sum(0)
    term = np.where(den > 0, (np.int64(scale) * cap) // np.maximum(den, 1), 0)
    acc = (term[None, :] * within).sum(1)
    nfac = within.sum(1)
    keep = nfac > 0
    assert np.array_equal(out["did"].to_numpy(), dk[keep])
    assert np.array_equal(out["access_scaled"].to_numpy(), acc[keep])
    assert np.array_equal(out["n_fac"].to_numpy(), nfac[keep])


def test_flow_direction_matches_brute(ray_session):
    """D8 flow dir vs a dense numpy replica on a small wrapped grid,
    including pits, isolated cells, and antimeridian-wrap neighbors."""
    import ray

    from georay import codec
    from georay.ops import tiles as tiles_ops

    bits = 6  # 8 x 8 grid
    rng = np.random.RandomState(7)
    nx = ny = 8
    occ = rng.rand(nx, ny) < 0.45
    elev = rng.randint(1, 50, size=(nx, ny)).astype(np.int64)
    xs, ys = np.nonzero(occ)
    cell = codec.interleave(xs.astype(np.uint64), ys.astype(np.uint64), bits)
    raster = pa.table({"cell": cell.astype(np.int64),
                       "n": elev[xs, ys]})
    out = tiles_ops.flow_direction(
        ray.data.from_arrow(raster).repartition(3), bits
    ).to_pandas()
    out["cell"] = out["cell"].astype(np.uint64)
    got = {int(c): (int(d), int(m))
           for c, d, m in zip(out["cell"], out["dir"], out["nb_min"])}

    offs = [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]
    assert len(got) == xs.size
    for x, y in zip(xs, ys):
        best = None
        for j, (dx, dy) in enumerate(offs):
            xn, yn = (x + dx) % nx, y + dy
            if not (0 <= yn < ny) or not occ[xn, yn]:
                continue
            cand = (int(elev[xn, yn]), j)
            if best is None or cand < best:
                best = cand
        c = int(codec.interleave(np.uint64(x), np.uint64(y), bits))
        if best is None:
            assert got[c] == (-1, -1)
        elif best[0] >= elev[x, y]:
            assert got[c] == (-1, best[0])
        else:
            assert got[c] == (best[1], best[0])


def test_grouped_median2_matches_numpy(ray_session):
    """2×interpolated-median vs numpy over odd/even/singleton/duplicate
    group shapes."""
    import ray

    from georay.ops import sketch as sketch_ops

    rng = np.random.RandomState(3)
    g = rng.randint(0, 12, size=500).astype(np.int64)
    v = rng.randint(-40, 40, size=500).astype(np.int64)
    g = np.concatenate([g, [99]])          # singleton group
    v = np.concatenate([v, [7]])
    out = sketch_ops.grouped_median2(
        ray.data.from_arrow(pa.table({"g": g, "v": v})).repartition(4),
        "g", "v",
    ).to_pandas().sort_values("g").reset_index(drop=True)
    for _, row in out.iterrows():
        vals = np.sort(v[g == row["g"]])
        n = vals.size
        assert row["n_rows"] == n
        assert row["median2"] == int(vals[(n - 1) // 2]) + int(vals[n // 2])
        assert row["median2"] / 2.0 == float(np.median(vals))


def test_cusum_changepoint_matches_brute(ray_session):
    """Bucketed CUSUM vs a per-key python replica, incl. singleton keys,
    ties (constant series -> all D_t have |D|=0 -> earliest t wins)."""
    import ray

    from georay.ops import window as window_ops

    rng = np.random.RandomState(11)
    rows = []
    for k in range(40):
        nd = rng.randint(1, 9)
        days = np.sort(rng.choice(60, size=nd, replace=False))
        for d in days:
            rows.append((k, int(d), int(rng.randint(1, 6))))
    rows.append((999, 5, 3))  # singleton
    k_a = np.array([r[0] for r in rows], dtype=np.int64)
    t_a = np.array([r[1] for r in rows], dtype=np.int64)
    x_a = np.array([r[2] for r in rows], dtype=np.int64)
    out = window_ops.cusum_changepoint(
        ray.data.from_arrow(pa.table({"k": k_a, "t": t_a, "x": x_a}))
        .repartition(4), "k", "t", "x",
    ).to_pandas().set_index("k")
    for k in np.unique(k_a):
        sel = k_a == k
        ts, xs = t_a[sel], x_a[sel]
        o = np.argsort(ts)
        ts, xs = ts[o], xs[o]
        n, tot = ts.size, xs.sum()
        cum = np.cumsum(xs)
        dev = np.abs(n * cum - np.arange(1, n + 1) * tot)
        i = int(np.argmax(dev))  # first max = earliest tie
        r = out.loc[k]
        assert (r["n_pts"], r["total"], r["cp_t"], r["max_absdev"]) == \
            (n, tot, ts[i], dev[i])


def test_containment_join_matches_brute(ray_session):
    """Asymmetric containment join vs an all-pairs python replica on a
    corpus with planted subset docs, exact dups, and boundary-threshold
    pairs; ordered-pair semantics (A in B, not B in A)."""
    import ray

    from georay.ops import setsim as setsim_ops

    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(120)]
    docs = []
    for i in range(30):
        nw = rng.randint(8, 20)
        docs.append(list(rng.choice(vocab, size=nw, replace=False)))
    docs.append(docs[0][:])                 # exact dup of doc 0
    docs.append(docs[1] + ["extra1", "extra2", "extra3"])  # superset of 1
    texts = [" ".join(d) for d in docs]
    ids = np.arange(len(docs), dtype=np.int64)
    num, den, min_tok = 9, 10, 8
    out = setsim_ops.containment_join(
        ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))
        .repartition(4),
        num, den, min_tokens=min_tok, num_partitions=4,
    ).to_pandas()
    got = {(int(a), int(b)): (int(i), int(n))
           for a, b, i, n in zip(out["id_a"], out["id_b"],
                                 out["n_inter"], out["n_a"])}
    want = {}
    sets = [set(w.lower() for w in d) for d in docs]
    for a in range(len(docs)):
        if len(sets[a]) < min_tok:
            continue
        for b in range(len(docs)):
            if a == b:
                continue
            inter = len(sets[a] & sets[b])
            if inter * den >= num * len(sets[a]):
                want[(a, b)] = (inter, len(sets[a]))
    assert want, "test corpus must contain qualifying pairs"
    assert got == want


def test_stay_points_matches_brute(ray_session):
    """Gaps-and-islands stays vs a per-key python replica: runs at the
    series edges, adjacent runs separated by one fast leg, min_dur filter."""
    import ray

    from georay.ops import trajectory as traj

    rng = np.random.RandomState(9)
    rows = []
    for k in range(25):
        n = rng.randint(1, 15)
        ts = np.sort(rng.choice(10_000, size=n, replace=False)) * 1_000_000
        xs = np.cumsum(rng.choice([0, 1, 40], size=n, p=[0.4, 0.3, 0.3]))
        for i in range(n):
            rows.append((k, int(ts[i]), i, int(xs[i]), 0))
    k_a = np.array([r[0] for r in rows], np.int64)
    t_a = np.array([r[1] for r in rows], np.int64)
    o_a = np.array([r[2] for r in rows], np.int64)
    x_a = np.array([r[3] for r in rows], np.int64)
    y_a = np.array([r[4] for r in rows], np.int64)
    eps2, min_dur = 4, 0
    out = traj.stay_points(
        ray.data.from_arrow(pa.table({
            "k": k_a, "us": t_a, "o": o_a, "x": x_a, "y": y_a,
        })).repartition(4),
        "k", "us", "o", "x", "y", eps2=eps2, min_dur_us=min_dur,
    ).to_pandas()
    got = set(map(tuple, out[["k", "start_us", "end_us", "n_pts"]]
                  .itertuples(index=False)))
    want = set()
    for k in np.unique(k_a):
        sel = k_a == k
        o = np.lexsort((o_a[sel], t_a[sel]))
        ts, xs = t_a[sel][o], x_a[sel][o]
        slow = np.diff(xs) ** 2 <= eps2
        i = 0
        while i < slow.size:
            if slow[i]:
                j = i
                while j + 1 < slow.size and slow[j + 1]:
                    j += 1
                want.add((k, ts[i], ts[j + 1], j - i + 2))
                i = j + 1
            i += 1
    assert want and got == want


def test_spatiotemporal_pairs_matches_brute(ray_session):
    """3-D bucketed contact join vs the O(n^2) replica: pairs exactly at
    the eps / window boundary, same-user exclusion, report-once (no dup
    rows)."""
    import ray

    from georay.ops import trajectory as traj

    rng = np.random.RandomState(13)
    n = 300
    eid = np.arange(n, dtype=np.int64)
    uid = rng.randint(0, 6, size=n).astype(np.int64)
    us = rng.randint(0, 5_000, size=n).astype(np.int64) * 1_000_000
    x = rng.randint(0, 2_000, size=n).astype(np.int64)
    y = rng.randint(0, 2_000, size=n).astype(np.int64)
    eps, w = 300, 600_000_000
    out = traj.spatiotemporal_pairs(
        ray.data.from_arrow(pa.table({
            "eid": eid, "uid": uid, "us": us, "x": x, "y": y,
        })).repartition(4),
        "eid", "uid", "us", "x", "y", eps=eps, window_us=w,
        num_partitions=4,
    ).to_pandas()
    assert not out.duplicated(["event_a", "event_b"]).any()
    got = set(map(tuple, out[["event_a", "event_b"]]
                  .itertuples(index=False)))
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    dt = np.abs(us[:, None] - us[None, :])
    a_i, b_i = np.nonzero(
        (d2 <= eps * eps) & (dt <= w) & (uid[:, None] != uid[None, :])
        & (eid[:, None] < eid[None, :])
    )
    want = set(zip(a_i.tolist(), b_i.tolist()))
    assert want and got == want


def test_ks2_statistic_matches_scipy_free_brute(ray_session):
    """Integer KS vs a direct two-CDF replica on skewed synthetic
    samples, including values present in only one sample."""
    import ray

    from georay.ops import sketch as sketch_ops

    rng = np.random.RandomState(21)
    v1 = rng.randint(0, 40, size=400)
    v2 = np.minimum(rng.randint(0, 40, size=300) + rng.randint(0, 6, 300), 45)
    val = np.concatenate([v1, v2]).astype(np.int64)
    flag = np.concatenate([np.ones(v1.size), np.full(v2.size, 2)]).astype(np.int64)
    out = sketch_ops.ks2_statistic(
        ray.data.from_arrow(pa.table({"v": val, "f": flag})).repartition(4),
        "v", "f",
    ).iloc[0]
    uv = np.unique(val)
    c1 = np.array([(v1 <= u).sum() for u in uv], np.int64)
    c2 = np.array([(v2 <= u).sum() for u in uv], np.int64)
    dev = np.abs(v2.size * c1 - v1.size * c2)
    i = int(np.argmax(dev))
    assert (out["n1"], out["n2"]) == (v1.size, v2.size)
    assert out["ks_num"] == dev[i]
    assert out["arg_value"] == uv[i]
    assert out["ks"] == dev[i] / (v1.size * v2.size)


def test_frequent_pairs_matches_brute(ray_session):
    """A-priori pairs vs an itertools replica: duplicate (basket, item)
    rows collapse, infrequent-item pruning changes nothing, support
    boundary inclusive."""
    import itertools

    import ray

    from georay.ops import pairs as pairs_ops

    rng = np.random.RandomState(17)
    rows = []
    for b in range(60):
        items = rng.choice(25, size=rng.randint(1, 7), replace=False)
        for it in items:
            rows.append((b, int(it)))
            if rng.rand() < 0.2:
                rows.append((b, int(it)))  # duplicate row
    b_a = np.array([r[0] for r in rows], np.int64)
    i_a = np.array([r[1] for r in rows], np.int64)
    out = pairs_ops.frequent_pairs(
        ray.data.from_arrow(pa.table({"b": b_a, "it": i_a})).repartition(4),
        "b", "it", min_support=2,
    ).to_pandas()
    got = {(int(a), int(c)): int(s) for a, c, s in
           zip(out["item_a"], out["item_b"], out["support"])}
    from collections import Counter
    cnt = Counter()
    for b in np.unique(b_a):
        for x, y in itertools.combinations(sorted(set(i_a[b_a == b])), 2):
            cnt[(x, y)] += 1
    want = {k: v for k, v in cnt.items() if v >= 2}
    assert want and got == want


def test_ks2_by_group_matches_brute(ray_session):
    """Grouped KS vs the per-group two-CDF replica, incl. a group with
    one sample missing (dropped) and per-group tie argmax."""
    import ray

    from georay.ops import sketch as sketch_ops

    rng = np.random.RandomState(29)
    g, v, f = [], [], []
    for k in range(8):
        n1, n2 = rng.randint(5, 60), rng.randint(5, 60) if k != 7 else 0
        g += [f"g{k}"] * (n1 + n2)
        v += list(rng.randint(0, 25, n1)) + list(
            np.minimum(rng.randint(0, 25, n2) + rng.randint(0, 5, n2), 28))
        f += [1] * n1 + [2] * n2
    g, v, f = (np.asarray(g), np.asarray(v, np.int64),
               np.asarray(f, np.int64))
    out = sketch_ops.ks2_by_group(
        ray.data.from_arrow(pa.table({"g": g, "v": v, "f": f}))
        .repartition(4), "g", "v", "f",
    ).set_index("g")
    assert "g7" not in out.index  # one-sample group dropped
    for k in [f"g{i}" for i in range(7)]:
        v1 = np.sort(v[(g == k) & (f == 1)])
        v2 = np.sort(v[(g == k) & (f == 2)])
        uv = np.unique(np.concatenate([v1, v2]))
        c1 = np.searchsorted(v1, uv, side="right")
        c2 = np.searchsorted(v2, uv, side="right")
        dev = np.abs(v2.size * c1 - v1.size * c2)
        i = int(np.argmax(dev))
        row = out.loc[k]
        assert (row["n1"], row["n2"]) == (v1.size, v2.size)
        assert row["ks_num"] == dev[i] and row["arg_value"] == uv[i]


def test_auc_mwu_matches_scipy_free_brute(ray_session):
    """Tie-aware U2 identity: 2*sum over pairs of [1 if v1>v2, 0.5 if tie]
    checked pairwise on the same binned inputs via the registered query
    kernel on a synthetic frame."""
    v1 = np.array([3, 5, 5, 9, 1], np.int64)
    v2 = np.array([2, 5, 7, 3], np.int64)
    # direct pairwise 2*AUC numerator
    gt = (v1[:, None] > v2[None, :]).sum()
    tie = (v1[:, None] == v2[None, :]).sum()
    u2_expect = 2 * gt + tie
    # histogram-identity replica (the kernel inside q_auc_mwu)
    uv = np.unique(np.concatenate([v1, v2]))
    c1 = np.array([(v1 == u).sum() for u in uv], np.int64)
    c2 = np.array([(v2 == u).sum() for u in uv], np.int64)
    cum2_prev = np.cumsum(c2) - c2
    u2 = int((c1 * (2 * cum2_prev + c2)).sum())
    assert u2 == u2_expect


def test_hll_registers_by_matches_global(ray_session):
    """Per-group HLL registers == running the global sketch on each
    group's rows separately (max-merge idempotence across batches)."""
    import ray

    from georay.ops import sketch as sketch_ops

    rng = np.random.RandomState(31)
    g = rng.randint(0, 5, size=3000).astype(np.int64)
    v = rng.randint(0, 400, size=3000).astype(np.int64)
    out = sketch_ops.hll_registers_by(
        ray.data.from_arrow(pa.table({"g": g, "v": v})).repartition(5),
        "g", "v", p=6,
    ).to_pandas()
    for k in range(5):
        sub = sketch_ops.hll_registers(
            ray.data.from_arrow(pa.table({"v": v[g == k]})), "v", p=6,
        ).to_pandas().sort_values("register").reset_index(drop=True)
        got = out[out["g"] == k].sort_values("register")[
            ["register", "max_rank"]].reset_index(drop=True)
        assert got.equals(sub)


def test_rrf_fuse_matches_brute(ray_session):
    """RRF fusion vs a dict replica over two overlapping rankings with
    score ties broken by neighbor id."""
    import ray

    from georay.ops import similarity as sim

    rng = np.random.RandomState(37)
    rows_a, rows_b = [], []
    for q in range(6):
        perm = rng.permutation(20)
        for r, n in enumerate(perm[:8], 1):
            rows_a.append((q, int(n), r))
        perm2 = rng.permutation(20)
        for r, n in enumerate(perm2[:8], 1):
            rows_b.append((q, int(n), r))

    def mk(rows):
        return ray.data.from_arrow(pa.table({
            "query_id": np.array([r[0] for r in rows], np.int64),
            "neighbor_id": np.array([r[1] for r in rows], np.int64),
            "rank": np.array([r[2] for r in rows], np.int64),
        })).repartition(3)

    out = sim.rrf_fuse([mk(rows_a), mk(rows_b)], k=4).to_pandas()
    from collections import defaultdict
    score = defaultdict(int)
    for rows in (rows_a, rows_b):
        for q, n, r in rows:
            score[(q, n)] += 1_000_000_000 // (60 + r)
    for q in range(6):
        cand = sorted(((s, n) for (qq, n), s in score.items() if qq == q),
                      key=lambda t: (-t[0], t[1]))[:4]
        got = out[out["query_id"] == q].sort_values("fused_rank")
        assert list(got["neighbor_id"]) == [n for _, n in cand]
        assert list(got["rrf_score"]) == [s for s, _ in cand]

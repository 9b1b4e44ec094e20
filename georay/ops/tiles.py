"""Raster-tile ↔ vector assignment (SURVEY.md §2.5 N6, X9).

A tile is a coarse cell prefix of the canonical Morton code. Every
aggregate here is a row-level ``map_batches`` that emits key and value
columns, followed by ``runtime.group_agg``: per-batch partials, then one
combine task over O(tiles × batches) partial rows, never O(input rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import codec
from georay.runtime import (adaptive_partitions, broadcast, by_key, group_agg,
                            join, per_key)


def _map(ds, fn):
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _level_tiles(cell: np.ndarray, levels: int):
    """(level, tile) for every row at every pyramid level: level L is the
    cell's Morton prefix with 2·L bits dropped."""
    lvl = np.repeat(np.arange(levels, dtype=np.int64), cell.size)
    tile = np.concatenate([cell >> np.uint64(2 * b) for b in range(levels)])
    return pa.table({"level": lvl, "tile": tile.astype(np.int64)})


def tile_counts(ds, bits: int, cell_col: str = "cell", cell_bits: int | None = None):
    """Per-tile row counts. ``cell_bits`` set → cells are re-prefixed from a
    finer precision (tile = cell >> (cell_bits - bits)); else cells are
    already at tile precision. Output: ``tile_x, tile_y, n`` (SQL-comparable
    grid coords, bijective with the tile Morton code)."""
    shift = np.uint64(0 if cell_bits is None else cell_bits - bits)

    def tile(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({"tile": (cell >> shift).astype(np.int64)})

    agg = group_agg(_map(ds, tile), "tile", {"n": ("count", None)})

    def finalize(t: pa.Table) -> pa.Table:
        tile = t["tile"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(tile, bits)
        return pa.table({"tile_x": x, "tile_y": y, "n": t["n"]})

    return agg.map_batches(finalize, batch_format="pyarrow")


def count_by(ds, col: str, out_col: str = "n"):
    """Generic count-by-key (works for string keys like tile_id)."""
    return group_agg(ds, col, {out_col: ("count", None)})


def tile_aggregate(ds, bits: int, value_col: str, cell_col: str = "cell"):
    """Per-tile (count, int-sum) aggregate. ``value_col`` must be
    integer-valued (callers pre-scale floats to ints for order-independent
    exactness)."""

    def rows(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        val = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"tile": cell.astype(np.int64), "v": val})

    return group_agg(_map(ds, rows), "tile",
                     {"n": ("count", None), "sum_val": ("sum", "v")})


def assemble_raster(ds, bits: int, value_col: str = "n", tile_bits: int = 6):
    """Raster assembly (reference ``to_xarray`` parity, SURVEY.md §2.4 X9):
    pivot cell-keyed values into dense per-tile 2-D grids. Each output row is
    one coarse tile: ``tile, x0, y0, h, w, values`` (row-major flattened
    dense grid, missing cells = 0). ``runtime.by_key`` on the coarse tile
    prefix so each dense block assembles locally."""
    fine_per_tile = bits - tile_bits

    def add_tile(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.append_column(
            "tile", pa.array((cell >> np.uint64(fine_per_tile)).astype(np.int64))
        )

    def assemble(g: pa.Table) -> pa.Table:
        cell = g["cell"].to_numpy().astype(np.uint64)
        val = g[value_col].to_numpy()
        x, y = codec.deinterleave(cell, bits)
        x0, y0 = int(x.min()), int(y.min())
        h, w = int(y.max()) - y0 + 1, int(x.max()) - x0 + 1
        grid = np.zeros((h, w), dtype=np.float64)
        grid[y - y0, x - x0] = val
        return pa.table({"tile": [g["tile"][0].as_py()], "x0": [x0],
                         "y0": [y0], "h": [h], "w": [w],
                         "values": [grid.reshape(-1)]})

    return by_key(
        ds.map_batches(add_tile, batch_format="pyarrow"), "tile",
        per_key("tile", assemble),
        pa.schema([(c, pa.int64()) for c in ("tile", "x0", "y0", "h", "w")]
                  + [("values", pa.list_(pa.float64()))]))


def pyramid_counts(ds, bits: int, levels: int, cell_col: str = "cell",
                   cell_bits: int | None = None):
    """Zoom-pyramid tile counts in ONE pass (web-map tile pyramid: level 0
    is the base ``bits`` precision, each next level halves both axes — the
    2-bit Morton parent). Every row emits its tile at each level and a
    single ``group_agg((level, tile))`` finishes the pyramid — one combine
    for all levels, not one per level. Output: ``level, tile_x, tile_y, n``."""
    if 2 * (levels - 1) >= bits:
        raise ValueError("levels exceed the cell hierarchy depth")
    shift = np.uint64(0 if cell_bits is None else cell_bits - bits)

    def rows(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        return _level_tiles(cell >> shift, levels)

    agg = group_agg(_map(ds, rows), ["level", "tile"], {"n": ("count", None)})

    def finalize(t: pa.Table) -> pa.Table:
        lvl = t["level"].to_numpy(zero_copy_only=False)
        tile = t["tile"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x = np.empty(tile.size, dtype=np.int64)
        y = np.empty(tile.size, dtype=np.int64)
        for b in np.unique(lvl):
            sel = lvl == b
            xb, yb = codec.deinterleave(tile[sel], bits - 2 * int(b))
            x[sel], y[sel] = xb, yb
        return pa.table(
            {"level": pa.array(lvl), "tile_x": pa.array(x),
             "tile_y": pa.array(y), "n": t["n"]}
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def focal_sum(raster_ds, bits: int, cell_col: str = "cell",
              value_col: str = "n", num_partitions: int | None = None):
    """3×3 k-ring focal (neighborhood) sum over an aggregated raster.

    Scatter-gather formulation: every occupied cell SCATTERS its value to
    itself + its 8 neighbors (codec.neighbors semantics — longitude wraps
    at the antimeridian, latitude clamps at the poles, off-grid neighbors
    dropped), one ``group_agg(cell)`` sums them, and an inner hash join
    back to the occupied set restricts output to occupied cells (windows
    centred on empty cells are not emitted). Because the 3×3 ring is
    symmetric, scattering equals gathering — no second neighbor pass.

    The combine sees O(distinct touched cells × batches) partial rows —
    never O(input points); run this AFTER a tile/count aggregate, not on
    raw points.

    Output: ``cell_col, value_col, focal_sum, n_nb`` (n_nb counts the
    occupied cells in the window, for a mean = focal_sum / n_nb).
    """
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    def scatter(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        val = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nbr, valid = codec.neighbors(cell, bits)
        parts_c = [cell]
        parts_v = [val]
        for j in range(8):
            ok = valid[:, j]
            parts_c.append(nbr[ok, j])
            parts_v.append(val[ok])
        return pa.table({cell_col: np.concatenate(parts_c).astype(np.int64),
                         "v": np.concatenate(parts_v)})

    gathered = group_agg(_map(raster_ds, scatter), cell_col,
                         {"focal_sum": ("sum", "v"), "n_nb": ("count", None)})

    return join(raster_ds, gathered, "inner", on=(cell_col,),
                right_suffix="_r", num_partitions=num_partitions)


def zonal_stats(ds, zone_col: str, value_col: str):
    """Per-zone (count, sum, min, max) of an INTEGER value column — zonal
    statistics over any zone key (polygon id from ``ops.pip.pip_assign``,
    tile prefix, admin code). Integer sums make the result
    order-independent (callers pre-scale floats, as everywhere in this
    repo). Output: zone_col, n, sum_v, min_v, max_v."""

    def rows(t: pa.Table) -> pa.Table:
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({zone_col: t[zone_col], "v": vals})

    return group_agg(_map(ds, rows), zone_col, {
        "n": ("count", None), "sum_v": ("sum", "v"),
        "min_v": ("min", "v"), "max_v": ("max", "v"),
    })


def hotspot_gi(ds, bits: int, cell_col: str = "cell",
               num_partitions: int | None = None):
    """Getis-Ord Gi* hot-spot z-score per OCCUPIED cell over a 3×3 queen
    neighborhood (the cell-grid form of the classic spatial hot-spot
    statistic, computed over the set of occupied cells).

    Definitions (chosen integer-first so an SQL oracle replays bit-exactly):
    with n_c the per-cell count, K the number of occupied cells,
    W_c = |occupied 3×3 ∩ occupied| (incl. self), S_c = Σ n over that set,
    sum_x = Σ n, sum_x2 = Σ n² —

        gi_z = (S - mean·W) / ((√(K·sum_x2 − sum_x²) / K) · √((K·W − W²)/(K−1)))

    where mean = sum_x/K. The variance and slack numerators stay EXACT
    INTEGERS (no float cancellation → no NaN from √(negative)); degenerate
    branches (W = K, or zero variance) emit 0.0 via an integer-exact CASE.

    Plan: per-cell counts (``group_agg``) → 9-way neighbor explode of the
    COUNTS table (O(occupied·9) rows, not O(points)) → ``group_agg`` →
    inner join back to the counts (drops
    never-occupied targets) → one vectorized map with the three global
    scalars closed over (bounded driver pull: one partial row per counts
    block). Output: ``tile_x, tile_y, n, gi_z``.
    """
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    half = bits // 2
    size = np.int64(1 << half)

    def cells(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({"cell": cell.astype(np.int64)})

    counts = group_agg(
        _map(ds, cells), "cell", {"n": ("count", None)}
    ).materialize()  # consumed 3×: scalars, explode, join-back

    def sc_partial(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array([np.int64(n.size)]),
            "sum_x": pa.array([n.sum(dtype=np.int64)]),
            "sum_x2": pa.array([(n * n).sum(dtype=np.int64)]),
        })

    st = counts.map_batches(
        sc_partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas().sum()  # bounded: one row per counts block
    k_i = np.int64(st["k"])
    sum_x, sum_x2 = np.int64(st["sum_x"]), np.int64(st["sum_x2"])
    var_i = k_i * sum_x2 - sum_x * sum_x  # exact integer ≥ 0
    kf = float(k_i)
    mean = float(sum_x) / kf
    s_over_k = np.sqrt(float(var_i)) / kf

    def explode(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = t["n"].to_numpy(zero_copy_only=False)
        x, y = codec.deinterleave(cell, bits)
        x = x.astype(np.int64)
        y = y.astype(np.int64)
        outs = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                tx, ty = x + dx, y + dy
                ok = (tx >= 0) & (tx < size) & (ty >= 0) & (ty < size)
                tgt = codec.interleave(
                    tx[ok].astype(np.uint64), ty[ok].astype(np.uint64), bits
                ).astype(np.int64)
                outs.append(pa.table({"cell": tgt, "s_part": n[ok]}))
        return pa.concat_tables(outs)

    nb = group_agg(_map(counts, explode), "cell",
                   {"w": ("count", None), "s": ("sum", "s_part")})

    joined = join(nb, counts, "inner", on=("cell",),
                  num_partitions=num_partitions)

    def z_rows(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, bits)
        w = t["w"].to_numpy(zero_copy_only=False)
        s = t["s"].to_numpy(zero_copy_only=False)
        kw = k_i * w - w * w  # exact integer
        z = np.zeros(t.num_rows, np.float64)
        live = (kw > 0) & (var_i > 0)
        if live.any():
            wf = w[live].astype(np.float64)
            sf = s[live].astype(np.float64)
            z[live] = (sf - mean * wf) / (
                s_over_k * np.sqrt(kw[live].astype(np.float64) / (kf - 1.0))
            )
        return pa.table({
            "tile_x": x.astype(np.int64), "tile_y": y.astype(np.int64),
            "n": t["n"], "gi_z": pa.array(z),
        })

    return joined.map_batches(z_rows, batch_format="pyarrow",
                              zero_copy_batch=True)


def adaptive_cells(ds, bits: int, levels: int, threshold: int,
                   cell_col: str = "cell", num_partitions: int | None = None):
    """Skew-adaptive quadtree leaves: split every cell holding more than
    ``threshold`` points into its 4 Morton children, down to at most
    ``bits`` precision — the partitioning primitive that turns dense urban
    geohashes into more, smaller partitions while sparse ocean stays
    coarse. Every input point lands in EXACTLY ONE leaf.

    Leaf rule (closed-form, no iteration — ancestor counts are monotone,
    so ``parent_n > threshold`` already implies every higher ancestor
    split): at the coarsest level a cell is a leaf iff ``n <= threshold``;
    at middle levels iff ``n <= threshold AND parent_n > threshold``; at
    the finest level iff ``parent_n > threshold`` (forced leaf).

    Plan: the one-pass pyramid rows (as in ``pyramid_counts``) → ONE
    ``group_agg`` over all levels → a single self-join child→parent →
    filters. No driver-side hot-key collection:
    the leaf decision is distributed. Output: ``cell_bits, tile_x, tile_y,
    n`` (leaf precision in bits, grid coords at that precision).
    """
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    if 2 * (levels - 1) >= bits:
        raise ValueError("levels exceed the cell hierarchy depth")
    coarsest = levels - 1

    def rows(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        return _level_tiles(cell, levels)

    counts = group_agg(
        _map(ds, rows), ["level", "tile"], {"n": ("count", None)}
    ).materialize()  # consumed twice: child side + parent side

    def child_side(t: pa.Table) -> pa.Table:
        lvl = t["level"].to_numpy(zero_copy_only=False)
        tile = t["tile"].to_numpy(zero_copy_only=False)
        keep = lvl < coarsest
        return pa.table({
            "level": lvl[keep], "tile": tile[keep],
            "n": t["n"].to_numpy(zero_copy_only=False)[keep],
            "p_level": lvl[keep] + 1,
            "p_tile": (tile[keep].astype(np.uint64)
                       >> np.uint64(2)).astype(np.int64),
        })

    def parent_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_level": t["level"], "p_tile": t["tile"], "p_n": t["n"],
        })

    children = counts.map_batches(child_side, batch_format="pyarrow",
                                  zero_copy_batch=True)
    parents = counts.map_batches(parent_side, batch_format="pyarrow",
                                 zero_copy_batch=True)
    joined = join(children, parents, "inner", on=("p_level", "p_tile"),
                  num_partitions=num_partitions)

    def leaf_mid(t: pa.Table) -> pa.Table:
        lvl = t["level"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        p_n = t["p_n"].to_numpy(zero_copy_only=False)
        keep = (p_n > threshold) & ((lvl == 0) | (n <= threshold))
        return pa.table({"level": lvl[keep],
                         "tile": t["tile"].to_numpy(zero_copy_only=False)[keep],
                         "n": n[keep]})

    def leaf_top(t: pa.Table) -> pa.Table:
        lvl = t["level"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        keep = (lvl == coarsest) & (n <= threshold)
        return pa.table({"level": lvl[keep],
                         "tile": t["tile"].to_numpy(zero_copy_only=False)[keep],
                         "n": n[keep]})

    leaves = joined.map_batches(
        leaf_mid, batch_format="pyarrow", zero_copy_batch=True
    ).union(counts.map_batches(
        leaf_top, batch_format="pyarrow", zero_copy_batch=True))

    def finalize(t: pa.Table) -> pa.Table:
        lvl = t["level"].to_numpy(zero_copy_only=False)
        tile = t["tile"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x = np.empty(tile.size, dtype=np.int64)
        y = np.empty(tile.size, dtype=np.int64)
        for b in np.unique(lvl):
            sel = lvl == b
            xb, yb = codec.deinterleave(tile[sel], bits - 2 * int(b))
            x[sel], y[sel] = xb, yb
        return pa.table({
            "cell_bits": pa.array(bits - 2 * lvl),
            "tile_x": pa.array(x), "tile_y": pa.array(y), "n": t["n"],
        })

    return leaves.map_batches(finalize, batch_format="pyarrow",
                              zero_copy_batch=True)


def tile_trend(ds, cell_col: str = "cell", x_col: str = "x", y_col: str = "y"):
    """Per-tile OLS trend (least-squares slope of integer ``y`` against
    integer ``x``), with EXACT integer moments: one ``group_agg`` sums
    (n, Σx, Σy, Σxy, Σx²) as int64 (order-independent), and the closed
    form ``slope = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²)`` is evaluated on the
    small per-tile result in arbitrary-precision Python ints before ONE
    float division — bit-identical to an SQL twin using HUGEINT products.
    Degenerate tiles (all x equal) emit slope 0.0 via an integer branch.

    Caller contract: x and y pre-scaled so per-batch Σ|x·y| fits int64
    (e.g. hours × milli-units). Output: ``cell, n, slope``.
    """
    def rows(t: pa.Table) -> pa.Table:
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"cell": t[cell_col], "x": x, "y": y,
                         "xy": x * y, "xx": x * x})

    agg = group_agg(_map(ds, rows), "cell", {
        "n": ("count", None), "sx": ("sum", "x"), "sy": ("sum", "y"),
        "sxy": ("sum", "xy"), "sxx": ("sum", "xx"),
    })

    def finalize(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).tolist()
        sx = t["sx"].to_numpy(zero_copy_only=False).tolist()
        sy = t["sy"].to_numpy(zero_copy_only=False).tolist()
        sxy = t["sxy"].to_numpy(zero_copy_only=False).tolist()
        sxx = t["sxx"].to_numpy(zero_copy_only=False).tolist()
        slope = np.zeros(len(n), np.float64)
        for i in range(len(n)):  # small: one row per tile; python bigints
            den = n[i] * sxx[i] - sx[i] * sx[i]
            if den != 0:
                slope[i] = float(n[i] * sxy[i] - sx[i] * sy[i]) / float(den)
        return pa.table({"cell": t["cell"], "n": t["n"],
                         "slope": pa.array(slope)})

    return agg.map_batches(finalize, batch_format="pyarrow")


def variogram(raster_ds, bits: int, max_lag: int, cell_col: str = "cell",
              value_col: str = "n", num_partitions: int | None = None,
              vector_bins: bool = False, stat: str = "sq_diff"):
    """Empirical semivariogram of an aggregated raster: every unordered
    pair of OCCUPIED cells within Chebyshev distance ``max_lag`` is binned
    by squared Euclidean grid distance d² = dx²+dy² and contributes
    (vᵢ−vⱼ)² — all integers, so the statistic is exact under any
    execution order (γ(d²) = sq_sum / (2·n_pairs) is the caller's one
    float division).

    Plan (never O(cells²)): each cell SCATTERS its value to the half ring
    of lag offsets (dx > 0, or dx = 0 ∧ dy > 0 — each unordered pair has
    exactly one reporter, so no dedup shuffle exists), a hash join back to
    the raster lands contributions on occupied partners only, and one
    ``group_agg(d2)`` sums them. Exchange is O(occupied × ring/2) scatter
    rows; the combine sees O(lags × batches) partial rows. Plain grid
    geometry — no longitude wrap: a variogram is a distance statistic, not
    a topology query.
    """
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    nx_bits, ny_bits = codec.split_bits(bits)
    nx, ny = 1 << nx_bits, 1 << ny_bits
    offsets = [(dx, dy)
               for dx in range(0, max_lag + 1)
               for dy in range(-max_lag, max_lag + 1)
               if (dx > 0 or dy > 0) and dx * dx + dy * dy <= max_lag * max_lag]

    def scatter(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        val = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x, y = codec.deinterleave(cell, bits)
        parts_c, parts_v, parts_d = [], [], []
        for dx, dy in offsets:
            tx = x.astype(np.int64) + dx
            ty = y.astype(np.int64) + dy
            ok = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
            parts_c.append(codec.interleave(
                tx[ok].astype(np.uint64), ty[ok].astype(np.uint64), bits))
            parts_v.append(val[ok])
            d_key = (dx * (2 * max_lag + 1) + dy + max_lag
                     if vector_bins else dx * dx + dy * dy)
            parts_d.append(np.full(int(ok.sum()), d_key, dtype=np.int64))
        return pa.table({
            cell_col: np.concatenate(parts_c).astype(np.int64),
            "src_v": np.concatenate(parts_v),
            "d2": np.concatenate(parts_d),
        })

    scattered = raster_ds.map_batches(
        scatter, batch_format="pyarrow", zero_copy_batch=True
    )

    landed = join(
        scattered, raster_ds.select_columns([cell_col, value_col]),
        "inner", on=(cell_col,), num_partitions=num_partitions,
    )

    def rows(t: pa.Table) -> pa.Table:
        a = t["src_v"].to_numpy(zero_copy_only=False)
        b = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # stat="sq_diff": Σ(vᵢ−vⱼ)² (semivariogram); "product": Σvᵢ·vⱼ
        # (the covariogram numerator — spatial autocovariance per lag)
        contrib = a * b if stat == "product" else (a - b) * (a - b)
        return pa.table({"d2": t["d2"], "c": contrib})

    agg = group_agg(_map(landed, rows), "d2", {
        "n_pairs": ("count", None),
        ("prod_sum" if stat == "product" else "sq_sum"): ("sum", "c"),
    })
    if not vector_bins:
        return agg

    def decode(t: pa.Table) -> pa.Table:
        # ``vector_bins`` packs the half-ring lag VECTOR (the variogram
        # map / anisotropy surface) instead of binning by d²
        k = t["d2"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "dx": k // (2 * max_lag + 1),
            "dy": k % (2 * max_lag + 1) - max_lag,
            "n_pairs": t["n_pairs"],
            ("prod_sum" if stat == "product" else "sq_sum"):
                t["prod_sum" if stat == "product" else "sq_sum"],
        })

    return agg.map_batches(decode, batch_format="pyarrow")


def grid_bfs(raster_ds, bits: int, max_hops: int,
             cell_col: str = "cell", src_col: str = "n_src"):
    """Multi-source BFS hop distance over OCCUPIED raster cells: sources
    are cells with ``src_col`` > 0 (hop 0); each round scatters the
    frontier to its queen 8-neighborhood (codec.neighbors — lon wrap, lat
    clamp) and keeps occupied targets only; after ``max_hops`` rounds one
    ``group_agg`` takes MIN(hop) per reached cell — bit-equal to
    first-reach semantics. The grid cost-distance primitive (raster
    proximity / catchment analysis).

    The occupied-cell set is bounded by the GRID (≤ 2^bits cells however
    large the input), so membership is a broadcast sorted array +
    searchsorted inside ``map_batches`` — no join, no all-to-all; the
    only data-sized work is the upstream raster aggregate. Frontiers are
    deduped and materialized per round (bounded), keeping the lazy plan
    one round deep.
    """
    # bounded driver collect: ≤ 2^bits cells by construction (to_pandas,
    # not to_arrow_refs — the latter intermittently trips the Ray core
    # reference_count CHECK on short-lived datasets, see BASELINE.md r3)
    occ_cells = np.sort(
        raster_ds.select_columns([cell_col]).to_pandas()[cell_col]
        .to_numpy())
    occupied = broadcast(occ_cells)

    def src(t: pa.Table) -> pa.Table:
        n = t[src_col].to_numpy(zero_copy_only=False)
        keep = n > 0
        cell = t[cell_col].to_numpy(zero_copy_only=False)[keep]
        return pa.table({cell_col: cell,
                         "hop": np.zeros(cell.size, dtype=np.int64)})

    frontier = raster_ds.map_batches(
        src, batch_format="pyarrow", zero_copy_batch=True
    ).repartition(1).materialize()
    reaches = [frontier]
    for hop in range(1, max_hops + 1):
        def scatter(t: pa.Table, _h=hop) -> pa.Table:
            occ = occupied()
            cell = t[cell_col].to_numpy(
                zero_copy_only=False).astype(np.uint64)
            nbr, valid = codec.neighbors(cell, bits)
            tgt = np.unique(nbr[valid]).astype(np.int64)
            if occ.size:
                pos = np.minimum(np.searchsorted(occ, tgt), occ.size - 1)
                tgt = tgt[occ[pos] == tgt]
            else:
                tgt = tgt[:0]
            return pa.table({cell_col: tgt,
                             "hop": np.full(tgt.size, _h, dtype=np.int64)})

        frontier = frontier.map_batches(
            scatter, batch_format="pyarrow", zero_copy_batch=True
        ).repartition(1).materialize()
        reaches.append(frontier)

    all_reaches = reaches[0]
    for r in reaches[1:]:
        all_reaches = all_reaches.union(r)
    return group_agg(all_reaches, cell_col, {"hops": ("min", "hop")})


def kernel_convolve(raster_ds, bits: int, kernel, cell_col: str = "cell",
                    value_col: str = "n", num_partitions: int | None = None):
    """Arbitrary integer-kernel raster convolution (focal_sum generalized):
    every occupied cell scatters ``value × weight`` to cell+(dx, dy) for
    each kernel tap, one ``group_agg`` sums the contributions, and an
    inner join back to the occupied set restricts
    output (plain-grid clamp — out-of-range taps drop; no lon wrap, unlike
    focal_sum's neighbor semantics). ``kernel``: iterable of (dx, dy, w)
    integer taps. The combine sees O(touched cells × batches) rows.

    Output: ``cell_col, value_col, conv``.
    """
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    taps = [(int(dx), int(dy), int(w)) for dx, dy, w in kernel]
    nx_bits, ny_bits = codec.split_bits(bits)
    nx, ny = 1 << nx_bits, 1 << ny_bits

    def scatter(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        val = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x, y = codec.deinterleave(cell, bits)
        xi = x.astype(np.int64)
        yi = y.astype(np.int64)
        parts_c, parts_v = [], []
        for dx, dy, w in taps:
            tx, ty = xi + dx, yi + dy
            ok = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
            parts_c.append(codec.interleave(
                tx[ok].astype(np.uint64), ty[ok].astype(np.uint64), bits))
            parts_v.append(val[ok] * w)
        return pa.table({cell_col: np.concatenate(parts_c).astype(np.int64),
                         "v": np.concatenate(parts_v)})

    gathered = group_agg(_map(raster_ds, scatter), cell_col,
                         {"conv": ("sum", "v")})
    return join(
        raster_ds.select_columns([cell_col, value_col]),
        gathered, "inner", on=(cell_col,), num_partitions=num_partitions,
    )


def flow_direction(raster_ds, bits: int, cell_col: str = "cell",
                   value_col: str = "n", num_partitions: int | None = None):
    """D8 flow direction over an aggregated integer raster: every occupied
    cell drains to its LOWEST-value occupied 8-neighbor, provided that
    neighbor is strictly lower; ties break to the smallest compass index
    (codec.NEIGHBOR_ORDER, N=0 … NW=7); cells with no strictly-lower
    occupied neighbor (or no occupied neighbor at all) are pits (dir −1).
    Neighbor semantics are the engine's frozen contract: longitude wraps,
    latitude clamps.

    Plan (scatter-argmin): each occupied cell scatters ``elev·8 +
    opp(dir)`` to its valid neighbors — the receiver sees the sender's
    direction — one ``group_agg`` MIN computes the packed argmin (value
    first, compass index as tiebreak, ties impossible since the index is
    unique per pair), and a LEFT join back to the occupied set keeps
    isolated cells as pits. The combine sees O(touched cells × batches)
    rows, never O(points): run on an aggregated raster.

    Output: ``cell_col, value_col, dir, nb_min`` (nb_min = lowest occupied
    neighbor value, −1 when there is none).
    """
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    import pyarrow.compute as pc

    sentinel = np.int64(1) << 62

    def scatter(t: pa.Table) -> pa.Table:
        cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        val = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nbr, valid = codec.neighbors(cell, bits)
        parts_c, parts_p = [], []
        for j in range(8):
            ok = valid[:, j]
            parts_c.append(nbr[ok, j])
            parts_p.append(val[ok] * 8 + ((j + 4) % 8))
        return pa.table({cell_col: np.concatenate(parts_c).astype(np.int64),
                         "pack": np.concatenate(parts_p)})

    gathered = group_agg(_map(raster_ds, scatter), cell_col,
                         {"minpack": ("min", "pack")})

    joined = join(raster_ds, gathered, "left_outer", on=(cell_col,),
                  right_suffix="_r", num_partitions=num_partitions)

    def finalize(t: pa.Table) -> pa.Table:
        mp = pc.fill_null(t["minpack"], int(sentinel)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        val = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        has = mp != sentinel
        nb_min = np.where(has, mp >> 3, np.int64(-1))
        lower = has & (nb_min < val)
        dirs = np.where(lower, mp % 8, np.int64(-1))
        return pa.table({
            cell_col: t[cell_col],
            value_col: pa.array(val),
            "dir": dirs,
            "nb_min": nb_min,
        })

    return joined.map_batches(finalize, batch_format="pyarrow")

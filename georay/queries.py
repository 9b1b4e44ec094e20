"""Driver-harness query pipelines, each paired with DuckDB oracle SQL.

Every entry runs a REAL distributed Ray Data pipeline (read → map_batches →
join/groupby → result) and has an ANSI-SQL twin over the same parquet views.
Spatial queries synthesize lon/lat deterministically from integer keys with
float64 expressions mirrored verbatim in the SQL text, and compare cells via
the floor-grid (x, y) bijection (SURVEY.md §5.6). Aggregates that would be
float-order-dependent are pre-scaled to integers per row so sums are exact
under any execution order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import cells, codec
from georay import io as gio
from georay.ops import hilbert as hilbert_ops
from georay.ops import join as join_ops
from georay.ops import knn as knn_ops
from georay.ops import pip as pip_ops
from georay.ops import spatial, tiles
from georay.ops.spatial import HASH_LAT, HASH_LON, sql_lat, sql_lon, sql_x, sql_y
from georay.ops.sketch import (
    sql_signed64 as sketch_sql_signed,
    sql_splitmix64_subquery as sketch_sql_subquery,
)
from georay import runtime

BITS_ENC = 24  # 4096 x 4096 grid
BITS_PARENT_FINE = 20
BITS_PARENT = 8
BITS_JOIN = 8  # 16 x 16 grid
BITS_TILE = 10  # 32 x 32 grid
COVER_BOX = (-10.0, 40.0, 10.0, 55.0)
BITS_COVER = 15  # 256 x 128 grid
KNN_K = 3
ANN_K = 5


def _read(sf_dir: str, table: str, columns=None):
    return gio.read_parquet(f"{sf_dir}/{table}.parquet", columns)


def _read_table(sf_dir: str, table: str, columns=None) -> pa.Table:
    """Driver-side read of a SMALL table (dimension side of broadcast joins)."""
    import pyarrow.parquet as pq

    return pq.read_table(f"{sf_dir}/{table}.parquet", columns=columns)


def _small_points(table: pa.Table, key_col: str, bits: int) -> pa.Table:
    t = spatial.add_synth_points(table, key_col)
    t = spatial.add_cell(t, bits)
    return spatial.add_cell_xy(t, bits)


# ---------------------------------------------------------------- cell encode


def q_cell_encode(sf_dir: str):
    ds = _read(sf_dir, "customer", columns=["c_custkey"])
    return spatial.points_with_cells(ds, "c_custkey", BITS_ENC).select_columns(
        ["c_custkey", "cx", "cy"]
    )


SQL_CELL_ENCODE = f"""
SELECT c_custkey,
       {sql_x(sql_lon('c_custkey'), 12)} AS cx,
       {sql_y(sql_lat('c_custkey'), 12)} AS cy
FROM customer
"""


# ------------------------------------------------------------- cell roundtrip


def q_cell_roundtrip(sf_dir: str):
    ds = _read(sf_dir, "customer", columns=["c_custkey"])

    def fn(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        code = codec.encode(lon, lat, BITS_ENC)
        clon, clat = codec.decode(code, BITS_ENC)
        return pa.table({"c_custkey": t["c_custkey"], "clon": clon, "clat": clat})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


SQL_CELL_ROUNDTRIP = f"""
SELECT c_custkey,
       ({sql_x(sql_lon('c_custkey'), 12)} + 0.5) / 4096.0 * 360.0 - 180.0 AS clon,
       ({sql_y(sql_lat('c_custkey'), 12)} + 0.5) / 4096.0 * 180.0 - 90.0 AS clat
FROM customer
"""


# ---------------------------------------------------------------- cell parent


def q_cell_parent(sf_dir: str):
    ds = _read(sf_dir, "customer", columns=["c_custkey"])

    def fn(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        fine = codec.encode(lon, lat, BITS_PARENT_FINE)
        parent = cells.cell_to_parent(fine, BITS_PARENT_FINE, BITS_PARENT)
        px, py = codec.deinterleave(parent, BITS_PARENT)
        return pa.table({"c_custkey": t["c_custkey"], "px": px, "py": py})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


SQL_CELL_PARENT = f"""
SELECT c_custkey,
       {sql_x(sql_lon('c_custkey'), 10)} // 64 AS px,
       {sql_y(sql_lat('c_custkey'), 10)} // 64 AS py
FROM customer
"""


# ------------------------------------------------------------------ grid cover


def q_cover_grid(sf_dir: str):
    """Enumerate the cell cover of a box as a streamed generator dataset and
    aggregate its shape — never materialized on the driver (SURVEY.md S4)."""
    import ray.data

    _, lon_boxes, lat_boxes, x0, y0 = codec.grid_properties(COVER_BOX, BITS_COVER)
    nx, _ = codec.split_bits(BITS_COVER)

    def gen(t: pa.Table) -> pa.Table:
        idx = t["id"].to_numpy(zero_copy_only=False)
        x = (x0 + idx % lon_boxes) & ((1 << nx) - 1)
        y = y0 + idx // lon_boxes
        cell = codec.interleave(x, y, BITS_COVER)
        return pa.table({"cell": cell.astype(np.int64)})

    cover = ray.data.range(lon_boxes * lat_boxes).map_batches(
        gen, batch_format="pyarrow"
    )

    def xy(t: pa.Table) -> pa.Table:
        x, y = codec.deinterleave(
            t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64), BITS_COVER
        )
        return pa.table({"x": x, "y": y})

    return runtime.group_agg(
        cover.map_batches(xy, batch_format="pyarrow"), [],
        {"n_cells": ("count", None), "x_min": ("min", "x"),
         "x_max": ("max", "x"), "y_min": ("min", "y"), "y_max": ("max", "y")},
    )


SQL_COVER_GRID = f"""
SELECT CAST(({sql_x('10.0', 8)} - {sql_x('-10.0', 8)} + 1)
          * ({sql_y('55.0', 7)} - {sql_y('40.0', 7)} + 1) AS BIGINT) AS n_cells,
       {sql_x('-10.0', 8)} AS x_min,
       {sql_x('10.0', 8)} AS x_max,
       {sql_y('40.0', 7)} AS y_min,
       {sql_y('55.0', 7)} AS y_max
"""


# ------------------------------------------------- polygon cover (polyfill)

# L-shaped test polygon: union of two half-open rectangles (the ray-cast
# interior of an axis-aligned ring is EXACTLY [xl,xr)×[yb,yt) — derivation
# in cells.polygon_cover docstring/test). Offsets keep every cell center
# (lattice -180 + 1.40625·(k+0.5)) off the polygon edges, so strict
# containment has no ties on either side.
POLY_L_LON0, POLY_L_LAT0 = -20.0003, -10.0003
POLY_L_W, POLY_L_H = 30.0, 24.0
BITS_POLY = BITS_COVER  # 15 → 256 × 128 grid, sx = sy = 1.40625°


def poly_l_ring() -> tuple[np.ndarray, np.ndarray]:
    l0, b0, w, h = POLY_L_LON0, POLY_L_LAT0, POLY_L_W, POLY_L_H
    rx = np.array([l0, l0 + w, l0 + w, l0 + w / 2, l0 + w / 2, l0])
    ry = np.array([b0, b0, b0 + h / 2, b0 + h / 2, b0 + h, b0 + h])
    return rx, ry


def _cover_xy(cover_ds):
    def xy(t: pa.Table) -> pa.Table:
        x, y = codec.deinterleave(
            t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64),
            BITS_POLY,
        )
        return pa.table({"cx": x.astype(np.int64), "cy": y.astype(np.int64)})

    return cover_ds.map_batches(xy, batch_format="pyarrow")


def q_polygon_cover(sf_dir: str):
    """Distributed polyfill (H3 polygon→cells analogue, SURVEY.md N1): the
    non-convex L polygon's cell cover at bits=15, enumerated strip-parallel
    with the crossing-number ray cast per strip — the cover never touches
    the driver. The SQL twin enumerates the bbox grid and replays center
    containment as the union of two half-open rectangle predicates (exact
    ray-cast equivalence for axis-aligned rings)."""
    rx, ry = poly_l_ring()
    return _cover_xy(cells.polygon_cover_dataset(rx, ry, BITS_POLY))


def q_polygon_cover_compact(sf_dir: str):
    """Polyfill → H3 compact → distributed uncompact roundtrip: the cover
    compacted to mixed precision (complete quadtree sibling sets promoted),
    then re-exploded to bits=15 by ``uncompact_dataset``. Lossless, so the
    oracle is the SAME enumeration SQL as ``polygon_cover`` — any
    promotion/expansion defect shows as missing or phantom cells."""
    import ray.data

    rx, ry = poly_l_ring()
    codes, code_bits = cells.polygon_cover_compact(rx, ry, BITS_POLY)
    mixed = ray.data.from_arrow(
        pa.table(
            {"cell": pa.array(codes.astype(np.int64)),
             "cell_bits": pa.array(code_bits.astype(np.int8))}
        )
    )
    return _cover_xy(cells.uncompact_dataset(mixed, BITS_POLY))


def q_cover_area(sf_dir: str):
    """Spherical area of a polygon's cell cover, per latitude band (S4×S8
    composition: polyfill → codec.area): each band's area is
    ``n_cells × band_cell_area`` — ONE float multiply of an int count by
    the closed-form band area, so no float summation order ever crosses
    the distributed/SQL boundary (band boundaries are dyadic-exact
    degrees; the sin/radians parity is the cell_area contract)."""
    rx, ry = poly_l_ring()
    cov = cells.polygon_cover_dataset(rx, ry, BITS_POLY)

    def band(t: pa.Table) -> pa.Table:
        _, y = codec.deinterleave(
            t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64),
            BITS_POLY,
        )
        return pa.table({"cy": y.astype(np.int64)})

    agg = runtime.group_agg(
        cov.map_batches(band, batch_format="pyarrow", zero_copy_batch=True),
        "cy", {"n_cells": ("count", None)},
    )

    nx, ny = codec.split_bits(BITS_POLY)

    def fin(t: pa.Table) -> pa.Table:
        y = t["cy"].to_numpy(zero_copy_only=False).astype(np.uint64)
        # one representative cell per band: x = 0 (area is x-independent;
        # every band boundary is a dyadic-exact degree value)
        code = codec.interleave(np.zeros_like(y), y, BITS_POLY)
        n = t["n_cells"].to_numpy(zero_copy_only=False).astype(np.int64)
        band = codec.area(code, BITS_POLY, model="sphere")
        return pa.table({
            "cy": t["cy"], "n_cells": t["n_cells"],
            "area_m2": n.astype(np.float64) * band,
        })

    return agg.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


def _sql_cover_area() -> str:
    nx, ny = codec.split_bits(BITS_POLY)
    sx, sy = 360.0 / (1 << nx), 180.0 / (1 << ny)
    rr = 6371008.8 * 6371008.8
    return f"""
WITH cov AS ({_sql_polygon_cover()}),
b AS (SELECT cy, CAST(COUNT(*) AS BIGINT) AS n_cells FROM cov GROUP BY cy),
g AS (SELECT cy, n_cells,
             CAST(cy AS DOUBLE) / {float(1 << ny)!r} * 180.0 - 90.0 AS lat_min
      FROM b)
SELECT cy, n_cells,
       CAST(n_cells AS DOUBLE) *
       ({rr!r} * radians((-180.0 + {sx!r}) - (-180.0))
               * (sin(radians(lat_min + {sy!r})) - sin(radians(lat_min))))
         AS area_m2
FROM g
"""


def q_cover_morphology(sf_dir: str):
    """GIS buffer / shrink as grid morphology over the polyfill cover:
    DILATION (every cell within ring-1 of the cover — the one-cell
    buffer) and EROSION (cover cells whose whole in-grid neighborhood is
    covered — the one-cell shrink) in ONE support-count plan: each cover
    cell votes for its ≤9 in-grid ring-1 cells (x wraps the antimeridian,
    y clamps at the poles by dropping), a group_agg count tallies support,
    and one hash join back against the cover marks membership. Output:
    (x, y, in_cover, eroded) over the dilated set."""
    rx, ry = poly_l_ring()
    cov = cells.polygon_cover_dataset(rx, ry, BITS_POLY).materialize()
    nx, ny = codec.split_bits(BITS_POLY)
    w, h = 1 << nx, 1 << ny

    def votes(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_POLY)
        x = x.astype(np.int64)
        y = y.astype(np.int64)
        ks = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                tx = (x + dx) % w
                ty = y + dy
                m = (ty >= 0) & (ty < h)
                ks.append(tx[m] * h + ty[m])
        return pa.table({"k": np.concatenate(ks)})

    support = runtime.group_agg(
        cov.map_batches(votes, batch_format="pyarrow", zero_copy_batch=True),
        "k", {"n": ("count", None)},
    )

    def marker(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_POLY)
        return pa.table({
            "k": x.astype(np.int64) * h + y.astype(np.int64),
            "_inc": np.ones(x.size, np.int64),
        })

    cov_marks = cov.map_batches(marker, batch_format="pyarrow",
                                zero_copy_batch=True)
    joined = runtime.join(support, cov_marks, "left_outer", on=("k",))

    def fin(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = t["k"].to_numpy(zero_copy_only=False)
        x, y = k // h, k % h
        n = t["n"].to_numpy(zero_copy_only=False)
        inc = pc.fill_null(t["_inc"], 0).to_numpy(zero_copy_only=False)
        need = np.where((y == 0) | (y == h - 1), 6, 9)
        return pa.table({
            "x": x, "y": y, "in_cover": inc.astype(np.int64),
            "eroded": ((inc == 1) & (n == need)).astype(np.int64),
        })

    return joined.map_batches(fin, batch_format="pyarrow")


def _sql_cover_morphology() -> str:
    nx, ny = codec.split_bits(BITS_POLY)
    w, h = 1 << nx, 1 << ny
    offs = ", ".join(f"({dx}, {dy})" for dx in (-1, 0, 1) for dy in (-1, 0, 1))
    return f"""
WITH cov AS ({_sql_polygon_cover()}),
off(dx, dy) AS (VALUES {offs}),
sup AS (SELECT ((cx + dx) % {w} + {w}) % {w} AS tx, cy + dy AS ty,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM cov CROSS JOIN off
        WHERE cy + dy BETWEEN 0 AND {h - 1}
        GROUP BY 1, 2)
SELECT s.tx AS x, s.ty AS y,
       CAST(CASE WHEN c.cx IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
         AS in_cover,
       CAST(CASE WHEN c.cx IS NOT NULL
                  AND s.n = CASE WHEN s.ty IN (0, {h - 1}) THEN 6 ELSE 9 END
            THEN 1 ELSE 0 END AS BIGINT) AS eroded
FROM sup s LEFT JOIN cov c ON c.cx = s.tx AND c.cy = s.ty
"""


def _sql_polygon_cover() -> str:
    nx, ny = codec.split_bits(BITS_POLY)
    sx, sy = 360.0 / (1 << nx), 180.0 / (1 << ny)
    l0, b0, w, h = POLY_L_LON0, POLY_L_LAT0, POLY_L_W, POLY_L_H
    import math

    x0 = max(int(math.floor((l0 + 180.0) / sx)), 0)
    x1 = min(int(math.floor((l0 + w + 180.0) / sx)), (1 << nx) - 1)
    y0 = max(int(math.floor((b0 + 90.0) / sy)), 0)
    y1 = min(int(math.floor((b0 + h + 90.0) / sy)), (1 << ny) - 1)
    return f"""
WITH g AS (
  SELECT xs.range AS cx, ys.range AS cy,
         (xs.range + 0.5) * {sx!r} - 180.0 AS lon,
         (ys.range + 0.5) * {sy!r} - 90.0 AS lat
  FROM range({x0}, {x1 + 1}) xs, range({y0}, {y1 + 1}) ys)
SELECT CAST(cx AS BIGINT) AS cx, CAST(cy AS BIGINT) AS cy FROM g
WHERE (lon >= {l0!r} AND lon < {l0 + w!r}
       AND lat >= {b0!r} AND lat < {b0 + h / 2!r})
   OR (lon >= {l0!r} AND lon < {l0 + w / 2!r}
       AND lat >= {b0 + h / 2!r} AND lat < {b0 + h!r})
"""


SQL_POLYGON_COVER = _sql_polygon_cover()
SQL_COVER_AREA = _sql_cover_area()
SQL_COVER_MORPHOLOGY = _sql_cover_morphology()

# overlay box for cover set algebra: overlaps the L's right arm + beyond
OVERLAY_LON0, OVERLAY_LAT0 = -10.0003, -5.0003
OVERLAY_W, OVERLAY_H = 35.0, 25.0


def q_cover_setops(sf_dir: str):
    """GIS OVERLAY as cell-cover set algebra (union / intersection /
    difference in one pass): polyfill the L polygon and an overlapping
    box at the same precision, FULL-OUTER-join the two covers on the
    cell key, and classify every cell as both / only_a / only_b — the
    distributed form of vector overlay once geometries are on a shared
    discrete grid. Covers stream from the strip-parallel polyfill; only
    (cell, flag) rows shuffle."""
    import pyarrow.compute as pc

    rx, ry = poly_l_ring()
    bx = np.array([OVERLAY_LON0, OVERLAY_LON0 + OVERLAY_W,
                   OVERLAY_LON0 + OVERLAY_W, OVERLAY_LON0])
    by = np.array([OVERLAY_LAT0, OVERLAY_LAT0,
                   OVERLAY_LAT0 + OVERLAY_H, OVERLAY_LAT0 + OVERLAY_H])

    def flagged(ds, col):
        def fn(t: pa.Table) -> pa.Table:
            c = t["cell"].to_numpy(zero_copy_only=False)
            return pa.table({"cell": c, col: np.ones(c.size, np.int64)})
        return ds.map_batches(fn, batch_format="pyarrow",
                              zero_copy_batch=True)

    a = flagged(cells.polygon_cover_dataset(rx, ry, BITS_POLY), "_a")
    b = flagged(cells.polygon_cover_dataset(bx, by, BITS_POLY), "_b")
    joined = runtime.join(a, b, "full_outer", on=("cell",))

    def fin(t: pa.Table) -> pa.Table:
        cell = pc.fill_null(t["cell"], 0).to_numpy(
            zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_POLY)
        ia = pc.fill_null(t["_a"], 0).to_numpy(zero_copy_only=False)
        ib = pc.fill_null(t["_b"], 0).to_numpy(zero_copy_only=False)
        return pa.table({
            "cx": x.astype(np.int64), "cy": y.astype(np.int64),
            "in_a": ia.astype(np.int64), "in_b": ib.astype(np.int64),
            "klass": (ia * 2 + ib).astype(np.int64),  # 3=both 2=a 1=b
        })

    return joined.map_batches(fin, batch_format="pyarrow")


def _sql_cover_setops() -> str:
    nx, ny = codec.split_bits(BITS_POLY)
    sx, sy = 360.0 / (1 << nx), 180.0 / (1 << ny)
    l0, b0 = OVERLAY_LON0, OVERLAY_LAT0
    w, h = OVERLAY_W, OVERLAY_H
    import math

    x0 = max(int(math.floor((l0 + 180.0) / sx)), 0)
    x1 = min(int(math.floor((l0 + w + 180.0) / sx)), (1 << nx) - 1)
    y0 = max(int(math.floor((b0 + 90.0) / sy)), 0)
    y1 = min(int(math.floor((b0 + h + 90.0) / sy)), (1 << ny) - 1)
    box = f"""
SELECT CAST(xs.range AS BIGINT) AS cx, CAST(ys.range AS BIGINT) AS cy
FROM range({x0}, {x1 + 1}) xs, range({y0}, {y1 + 1}) ys
WHERE (xs.range + 0.5) * {sx!r} - 180.0 >= {l0!r}
  AND (xs.range + 0.5) * {sx!r} - 180.0 < {l0 + w!r}
  AND (ys.range + 0.5) * {sy!r} - 90.0 >= {b0!r}
  AND (ys.range + 0.5) * {sy!r} - 90.0 < {b0 + h!r}
"""
    return f"""
WITH a AS ({_sql_polygon_cover()}),
b AS ({box})
SELECT COALESCE(a.cx, b.cx) AS cx, COALESCE(a.cy, b.cy) AS cy,
       CAST(CASE WHEN a.cx IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS in_a,
       CAST(CASE WHEN b.cx IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS in_b,
       CAST(CASE WHEN a.cx IS NOT NULL THEN 2 ELSE 0 END
            + CASE WHEN b.cx IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
         AS klass
FROM a FULL OUTER JOIN b ON a.cx = b.cx AND a.cy = b.cy
"""


SQL_COVER_SETOPS = _sql_cover_setops()


# ---------------------------------------------------------------- spatial join


def _sql_point_cte(table: str, key: str, bits: int, extra_cols: str = "") -> str:
    nx, ny = codec.split_bits(bits)
    return (
        f"SELECT {key}{extra_cols}, {sql_lon(key)} AS lon, {sql_lat(key)} AS lat, "
        f"{sql_x(sql_lon(key), nx)} AS x, {sql_y(sql_lat(key), ny)} AS y FROM {table}"
    )


def q_spatial_join(sf_dir: str):
    """Broadcast path: suppliers (small) shipped once, customers streamed."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN)
    supp = _small_points(
        _read_table(sf_dir, "supplier", columns=["s_suppkey"]), "s_suppkey", BITS_JOIN
    )
    out = join_ops.broadcast_cell_join(
        cust,
        supp,
        on="cell",
        left_cols=["c_custkey", "cx", "cy"],
        right_cols=["s_suppkey"],
    )
    return out.select_columns(["c_custkey", "s_suppkey", "cx", "cy"])


SQL_SPATIAL_JOIN = f"""
WITH c AS ({_sql_point_cte('customer', 'c_custkey', BITS_JOIN)}),
     s AS ({_sql_point_cte('supplier', 's_suppkey', BITS_JOIN)})
SELECT c.c_custkey, s.s_suppkey, c.x AS cx, c.y AS cy
FROM c JOIN s ON c.x = s.x AND c.y = s.y
"""


def q_spatial_join_shuffle(sf_dir: str):
    """Shuffle path: ``runtime.join`` (hash-bucketed, task-based) on the
    cell key — same result as the broadcast path, exercised separately."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN)
    supp = _read(sf_dir, "supplier", columns=["s_suppkey"])
    supp = spatial.points_with_cells(supp, "s_suppkey", BITS_JOIN, xy=False)
    out = join_ops.shuffle_cell_join(
        cust,
        supp,
        on="cell",
        left_cols=["c_custkey", "cx", "cy"],
        right_cols=["s_suppkey"],
    )
    return out.select_columns(["c_custkey", "s_suppkey", "cx", "cy"])


# ------------------------------------------------------------------------ kNN


def q_knn(sf_dir: str):
    """k nearest suppliers per customer among ring-1 cells at BITS_JOIN —
    exact ring-bound kNN semantics mirrored by the Chebyshev SQL join."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    supp = _small_points(
        _read_table(sf_dir, "supplier", columns=["s_suppkey"]), "s_suppkey", BITS_JOIN
    )
    out = knn_ops.knn_ring(
        cust,
        supp,
        bits=BITS_JOIN,
        k=KNN_K,
        ring=1,
        query_cols=["c_custkey"],
        ref_id="s_suppkey",
    )
    return out.select_columns(["c_custkey", "s_suppkey", "rank"])


SQL_KNN = f"""
WITH c AS ({_sql_point_cte('customer', 'c_custkey', BITS_JOIN)}),
     s AS ({_sql_point_cte('supplier', 's_suppkey', BITS_JOIN)})
SELECT c_custkey, s_suppkey, rank FROM (
  SELECT c.c_custkey, s.s_suppkey,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY c.c_custkey
           ORDER BY (c.lon - s.lon) * (c.lon - s.lon)
                  + (c.lat - s.lat) * (c.lat - s.lat), s.s_suppkey
         ) AS BIGINT) AS rank
  FROM c JOIN s
    ON LEAST((c.x - s.x + 16) % 16, (s.x - c.x + 16) % 16) <= 1
   AND ABS(c.y - s.y) <= 1
) WHERE rank <= {KNN_K}
"""


def q_knn_global(sf_dir: str):
    """EXACT global kNN (not ring-bounded): adaptive ring expansion with the
    ring-bound stopping guarantee. Oracle: full cross-join ranking."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    supp = _small_points(
        _read_table(sf_dir, "supplier", columns=["s_suppkey"]), "s_suppkey", BITS_JOIN
    )
    out = knn_ops.knn_adaptive(
        cust, supp, bits=BITS_JOIN, k=KNN_K,
        query_cols=["c_custkey"], ref_id="s_suppkey",
    )
    return out.select_columns(["c_custkey", "s_suppkey", "rank"])


SQL_KNN_GLOBAL = f"""
WITH c AS ({_sql_point_cte('customer', 'c_custkey', BITS_JOIN)}),
     s AS ({_sql_point_cte('supplier', 's_suppkey', BITS_JOIN)})
SELECT c_custkey, s_suppkey, rank FROM (
  SELECT c.c_custkey, s.s_suppkey,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY c.c_custkey
           ORDER BY (c.lon - s.lon) * (c.lon - s.lon)
                  + (c.lat - s.lat) * (c.lat - s.lat), s.s_suppkey
         ) AS BIGINT) AS rank
  FROM c CROSS JOIN s
) WHERE rank <= {KNN_K}
"""


# ------------------------------------------------------------------- dwithin

DWITHIN_RADIUS = 12.0  # degrees; ring 2 at BITS_JOIN (16x16 grid)


def q_dwithin(sf_dir: str):
    """All (customer, supplier) pairs within 12 squared-degree distance —
    broadcast proximity join (ops.knn.dwithin_ring): refs shipped once,
    ring-2 candidate gather (ring provably covers the radius), vectorized
    distance filter, zero shuffles."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    supp = _small_points(
        _read_table(sf_dir, "supplier", columns=["s_suppkey"]), "s_suppkey", BITS_JOIN
    )
    out = knn_ops.dwithin_ring(
        cust, supp, bits=BITS_JOIN, radius=DWITHIN_RADIUS,
        query_cols=["c_custkey"], ref_id="s_suppkey",
    )
    return out.select_columns(["c_custkey", "s_suppkey", "dist2"])


def q_dwithin_shuffle(sf_dir: str):
    """Big×big distance-within join: ring-explode the smaller side, ONE
    hash shuffle on cell, streaming distance filter (no per-query reduce —
    pair membership is per-pair). Same SQL twin as the broadcast path."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    supp = _read(sf_dir, "supplier", columns=["s_suppkey"])
    supp = spatial.points_with_cells(supp, "s_suppkey", BITS_JOIN, xy=False)
    out = knn_ops.dwithin_shuffle(
        cust, supp, bits=BITS_JOIN, radius=DWITHIN_RADIUS,
        query_id="c_custkey", ref_id="s_suppkey", expand_side="refs",
    )
    return out.select_columns(["c_custkey", "s_suppkey", "dist2"])


SQL_DWITHIN = f"""
WITH c AS ({{c_cte}}),
     s AS ({{s_cte}})
SELECT c.c_custkey, s.s_suppkey,
       (c.lon - s.lon) * (c.lon - s.lon)
     + (c.lat - s.lat) * (c.lat - s.lat) AS dist2
FROM c JOIN s
  ON (c.lon - s.lon) * (c.lon - s.lon)
   + (c.lat - s.lat) * (c.lat - s.lat)
     <= {DWITHIN_RADIUS} * {DWITHIN_RADIUS}
""".format(
    c_cte=_sql_point_cte("customer", "c_custkey", BITS_JOIN),
    s_cte=_sql_point_cte("supplier", "s_suppkey", BITS_JOIN),
)


def q_tile_render(sf_dir: str):
    """Map-tile RENDERING — the encode side of the image pipeline (every
    other image query only decodes): order points rasterize to an 8×8
    count raster per tile (256×256 fine grid = 32×32 tiles × 8×8 pixels),
    each raster ENCODES to a real PNG blob with the engine's codec and is
    immediately decoded back inside the same distributed stage (lossless
    round-trip proven in-flight). Plan: two-phase fine-cell counts →
    per-tile assemble/encode/decode (``runtime.by_key`` on the tile, one
    call per tile run). The oracle replays the count arithmetic; the
    emitted dec_sum comes from the DECODED pixels, so a codec defect
    breaks the match."""
    from georay import images

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def fine_cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        # 256×256 fine grid
        return pa.table({"fcell": codec.encode(lon, lat, 16).astype(np.int64)})

    counts = runtime.group_agg(
        orders.map_batches(fine_cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "fcell", {"n": ("count", None)},
    )

    def tag_tile(t: pa.Table) -> pa.Table:
        fc = t["fcell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        fx, fy = codec.deinterleave(fc, 16)
        return pa.table({
            "tile": (fx // 8).astype(np.int64) * 32 + (fy // 8).astype(np.int64),
            "px": (fx % 8).astype(np.int64), "py": (fy % 8).astype(np.int64),
            "n": t["n"],
        })

    tagged = counts.map_batches(tag_tile, batch_format="pyarrow",
                                zero_copy_batch=True)

    def render(g: pa.Table) -> pa.Table:
        raster = np.zeros((8, 8, 3), np.uint8)
        v = np.minimum(g["n"].to_numpy(), 255).astype(np.uint8)
        raster[g["py"].to_numpy(), g["px"].to_numpy(), :] = v[:, None]
        blob = images.encode_image(raster, "png")
        back = images.decode_image(blob, "png")  # lossless round-trip
        tile = g["tile"][0].as_py()
        return pa.table({
            "tile_x": [tile // 32], "tile_y": [tile % 32],
            "n_nonzero": [int((back.reshape(-1, 3)[:, 0] > 0).sum())],
            "dec_sum": [int(back.astype(np.int64).sum())],
        })

    return runtime.by_key(
        tagged, "tile", runtime.per_key("tile", render), pa.schema(
            [(c, pa.int64())
             for c in ("tile_x", "tile_y", "n_nonzero", "dec_sum")]))


SQL_TILE_RENDER = f"""
WITH g AS (SELECT {sql_x(sql_lon('o_custkey'), 8)} AS fx,
                  {sql_y(sql_lat('o_custkey'), 8)} AS fy
           FROM orders),
cnt AS (SELECT fx, fy, COUNT(*) AS n FROM g GROUP BY 1, 2),
t AS (SELECT fx // 8 AS tile_x, fy // 8 AS tile_y, LEAST(n, 255) AS v
      FROM cnt)
SELECT CAST(tile_x AS BIGINT) AS tile_x, CAST(tile_y AS BIGINT) AS tile_y,
       CAST(COUNT(*) AS BIGINT) AS n_nonzero,
       CAST(3 * SUM(v) AS BIGINT) AS dec_sum
FROM t GROUP BY 1, 2
"""


RIPLEY_RADII = (6.0, 12.0)


def q_ripley_pairs(sf_dir: str):
    """Ripley's K numerator — the point-pattern clustering statistic: the
    exact count of unordered customer pairs within distance r, for a
    ladder of radii, in ONE pass of the largest radius's ring join (each
    smaller radius is a free vectorized filter on the same dist² column).
    Pairs never materialize beyond per-batch count partials — the join
    feeds an immediate reduce. Same frozen squared-degree metric as the
    dwithin family, so counts are exact."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust_pts = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN,
                                         xy=False)
    refs = _small_points(
        _read_table(sf_dir, "customer", columns=["c_custkey"]),
        "c_custkey", BITS_JOIN,
    )
    refs = refs.rename_columns(
        ["ref_key" if c == "c_custkey" else c for c in refs.column_names]
    )
    rmax = max(RIPLEY_RADII)
    pairs = knn_ops.dwithin_ring(
        cust_pts, refs, bits=BITS_JOIN, radius=rmax,
        query_cols=["c_custkey"], ref_id="ref_key",
    )

    def partial(t: pa.Table) -> pa.Table:
        a = t["c_custkey"].to_numpy(zero_copy_only=False)
        b = t["ref_key"].to_numpy(zero_copy_only=False)
        d2 = t["dist2"].to_numpy(zero_copy_only=False)
        m = a < b  # unordered pairs once; drops self-pairs too
        d2 = d2[m]
        rs, ns = [], []
        for r in RIPLEY_RADII:
            rs.append(r)
            ns.append(int((d2 <= r * r).sum()))
        return pa.table({"r": pa.array(rs, pa.float64()),
                         "p_n": pa.array(ns, pa.int64())})

    return runtime.group_agg(
        pairs.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True),
        "r", {"n_pairs": ("sum", "p_n")},
    )


SQL_RIPLEY_PAIRS = f"""
WITH c AS ({_sql_point_cte('customer', 'c_custkey', BITS_JOIN)}),
p AS (SELECT (a.lon - b.lon) * (a.lon - b.lon)
            + (a.lat - b.lat) * (a.lat - b.lat) AS d2
      FROM c a JOIN c b ON a.c_custkey < b.c_custkey)
SELECT 6.0 AS r, CAST(COUNT(*) FILTER (d2 <= 6.0 * 6.0) AS BIGINT) AS n_pairs
FROM p
UNION ALL
SELECT 12.0 AS r,
       CAST(COUNT(*) FILTER (d2 <= 12.0 * 12.0) AS BIGINT) AS n_pairs
FROM p
"""


GEODESIC_D_M = 2_000_000.0  # 2000 km


def _sql_hav(alat: str, alon: str, blat: str, blon: str) -> str:
    """The frozen haversine-kernel expression tree (must match numpy's in
    ops.knn.geodesic_dwithin_ring term for term)."""
    return (
        f"sin((radians({alat}) - radians({blat})) / 2.0)"
        f" * sin((radians({alat}) - radians({blat})) / 2.0)"
        f" + (cos(radians({alat})) * cos(radians({blat})))"
        f" * (sin((radians({alon}) - radians({blon})) / 2.0)"
        f" * sin((radians({alon}) - radians({blon})) / 2.0))"
    )


def q_dwithin_geodesic(sf_dir: str):
    """GREAT-CIRCLE proximity join — (customer, supplier) pairs within
    2000 km of true geodesic distance (every other proximity op uses the
    squared-degree metric): latitude-adaptive candidate rings (x half-
    width grows with |lat|, all-longitudes near the poles — a fixed lon
    ring is provably wrong there), monotone haversine-kernel filter with
    a frozen float64 expression tree the SQL twin replays bit-for-bit
    (ops.knn.geodesic_dwithin_ring)."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    supp = _small_points(
        _read_table(sf_dir, "supplier", columns=["s_suppkey"]),
        "s_suppkey", BITS_JOIN,
    )
    out = knn_ops.geodesic_dwithin_ring(
        cust, supp, bits=BITS_JOIN, d_meters=GEODESIC_D_M,
        query_cols=["c_custkey"], ref_id="s_suppkey",
    )
    return out.select_columns(["c_custkey", "s_suppkey", "hav"])


def _sql_dwithin_geodesic() -> str:
    import math

    t = math.sin(GEODESIC_D_M / (2.0 * 6371008.8))
    hav = _sql_hav("c.lat", "c.lon", "s.lat", "s.lon")
    return f"""
WITH c AS ({_sql_point_cte('customer', 'c_custkey', BITS_JOIN)}),
     s AS ({_sql_point_cte('supplier', 's_suppkey', BITS_JOIN)})
SELECT c.c_custkey, s.s_suppkey, {hav} AS hav
FROM c JOIN s ON {hav} <= {t * t!r}
"""


SQL_DWITHIN_GEODESIC = _sql_dwithin_geodesic()


def q_nearest_geodesic(sf_dir: str):
    """Nearest-facility assignment by TRUE geodesic distance: each
    customer's closest supplier under the monotone haversine kernel
    (broadcast the small side once, vectorized kernel matrix per batch,
    argmin with supplier-id tie-break). Unlike the ring joins this is
    exact with NO candidate geometry at all — the right plan when one
    side fits a broadcast; the ring path (dwithin_geodesic) is the
    big-side alternative."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    supp_t = _small_points(
        _read_table(sf_dir, "supplier", columns=["s_suppkey"]),
        "s_suppkey", BITS_JOIN,
    )
    sid = supp_t["s_suppkey"].to_numpy()
    o = np.argsort(sid, kind="quicksort")  # argmin tie → smallest suppkey
    packed = (sid[o], supp_t["lon"].to_numpy()[o], supp_t["lat"].to_numpy()[o])
    suppliers = runtime.broadcast(packed)

    def fn(t: pa.Table) -> pa.Table:
        sid, slon, slat = suppliers()
        key = t["c_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        sp = np.sin((np.radians(lat)[:, None]
                     - np.radians(slat)[None, :]) / 2.0)
        sl = np.sin((np.radians(lon)[:, None]
                     - np.radians(slon)[None, :]) / 2.0)
        h = sp * sp + (np.cos(np.radians(lat))[:, None]
                       * np.cos(np.radians(slat))[None, :]) * (sl * sl)
        best = np.argmin(h, axis=1)  # first minimum = smallest suppkey
        return pa.table({
            "c_custkey": pa.array(key),
            "s_suppkey": pa.array(sid[best]),
            "hav": pa.array(h[np.arange(key.size), best]),
        })

    return cust.map_batches(fn, batch_format="pyarrow")


def _sql_nearest_geodesic() -> str:
    hav = _sql_hav("c.lat", "c.lon", "s.lat", "s.lon")
    return f"""
WITH c AS ({_sql_point_cte('customer', 'c_custkey', BITS_JOIN)}),
     s AS ({_sql_point_cte('supplier', 's_suppkey', BITS_JOIN)}),
r AS (SELECT c.c_custkey, s.s_suppkey, {hav} AS hav,
             ROW_NUMBER() OVER (PARTITION BY c.c_custkey
                                ORDER BY {hav}, s.s_suppkey) AS rn
      FROM c CROSS JOIN s)
SELECT c_custkey, s_suppkey, hav FROM r WHERE rn = 1
"""


SQL_NEAREST_GEODESIC = _sql_nearest_geodesic()


# -------------------------------------------------------------- grid DBSCAN

DBSCAN_EPS = 6.0  # degrees (ring 1 at BITS_JOIN)
DBSCAN_MIN_PTS = 4


def q_grid_dbscan(sf_dir: str):
    """Deterministic grid-DBSCAN over customer points: eps-pairs from the
    cell-ring dwithin exchange (reused 3×: degree counts, core-core edges,
    border assignment), core components via min-label connected components,
    border points attach to the MIN adjacent core component (order-free).
    Output (c_custkey, cluster, role) — cluster = min reachable core id or
    -1 noise; role 2/1/0 = core/border/noise. The SQL twin replays the same
    formulation relationally with a recursive-CTE transitive closure."""
    from georay.ops import dbscan as dbscan_ops

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    return dbscan_ops.grid_dbscan(
        cust, bits=BITS_JOIN, eps=DBSCAN_EPS, min_pts=DBSCAN_MIN_PTS,
        id_col="c_custkey", num_partitions=8,
    )


SQL_GRID_DBSCAN = """
WITH RECURSIVE pts AS ({c_cte}),
pairs AS (
  SELECT a.c_custkey AS pid, b.c_custkey AS nid
  FROM pts a JOIN pts b
    ON (a.lon - b.lon) * (a.lon - b.lon)
     + (a.lat - b.lat) * (a.lat - b.lat) <= {eps} * {eps}
),
deg AS (SELECT pid, COUNT(*) AS cnt FROM pairs GROUP BY pid),
core AS (SELECT pid FROM deg WHERE cnt >= {min_pts}),
e AS (SELECT p.pid AS a, p.nid AS b FROM pairs p
      JOIN core c1 ON p.pid = c1.pid JOIN core c2 ON p.nid = c2.pid
      WHERE p.pid <> p.nid),
r(a, b) AS (
  SELECT pid, pid FROM core
  UNION
  SELECT r.a, e.b FROM r JOIN e ON e.a = r.b
),
comp AS (SELECT a AS node, MIN(b) AS component FROM r GROUP BY a),
lab AS (SELECT p.pid, MIN(c.component) AS lbl
        FROM pairs p JOIN comp c ON c.node = p.nid GROUP BY p.pid)
SELECT d.pid AS c_custkey,
       CAST(COALESCE(l.lbl, -1) AS BIGINT) AS cluster,
       CAST(CASE WHEN d.cnt >= {min_pts} THEN 2
                 WHEN l.lbl IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS role
FROM deg d LEFT JOIN lab l ON l.pid = d.pid
""".format(
    c_cte=_sql_point_cte("customer", "c_custkey", BITS_JOIN),
    eps=DBSCAN_EPS,
    min_pts=DBSCAN_MIN_PTS,
)


def q_rolling_wau(sf_dir: str):
    """Rolling 7-day active users per day (the WAU curve): each distinct
    (user, day) pair expands to the 7 window-end days it supports, one
    distinct (window, user) group_agg collapses the expansion, and a
    count per window finishes — the
    sliding-distinct shape where only distinct pairs ever shuffle. SQL
    twin: the same expansion via unnest(range(7)) + COUNT(DISTINCT)."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def expand(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86_400_000_000)
        pack = np.unique(uid * (np.int64(1) << 24) + day)
        u0, d0 = pack >> 24, pack & ((1 << 24) - 1)
        return pa.table({
            "window_day": (d0[:, None] + np.arange(7)[None, :]).reshape(-1),
            "user_id": np.repeat(u0, 7),
        })

    pairs = runtime.group_agg(
        ev.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True),
        ["window_day", "user_id"],
    )
    return runtime.group_agg(pairs, "window_day", {"wau": ("count", None)})


SQL_ROLLING_WAU = """
WITH d AS (SELECT DISTINCT user_id,
                  epoch_us(ts) // 86400000000 AS day FROM events),
e AS (SELECT DISTINCT user_id, day + i AS wd
      FROM d, unnest(range(7)) t(i))
SELECT wd AS window_day, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS wau
FROM e GROUP BY 1
"""


def q_interarrival_median(sf_dir: str):
    """Per-user EXACT interpolated median inter-arrival time (whole
    seconds): gaps come from ONE bucketized segmented pass over the
    (ts, event_id)-ordered stream (cross-user diffs masked, no per-user
    Python call), the median from ops.sketch.grouped_median2 (2×median
    stays int64). SQL twin: LAG gaps + the window percentile replay."""
    import pandas as pd

    from georay.ops import sketch as sketch_ops

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def gaps(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        uid = g["user_id"].to_numpy(np.int64)
        us = g["ts"].astype("int64").to_numpy()
        eid = g["event_id"].to_numpy(np.int64)
        order = np.lexsort((eid, us, uid))
        u, t = uid[order], us[order]
        same = u[1:] == u[:-1]
        return pd.DataFrame({
            "user_id": u[1:][same],
            "gap_s": (t[1:] - t[:-1])[same] // 1_000_000,
        })

    gap_ds = runtime.by_key(ev, "user_id", gaps, pa.schema(
        [("user_id", pa.int64()), ("gap_s", pa.int64())]))
    return sketch_ops.grouped_median2(gap_ds, "user_id", "gap_s")


SQL_INTERARRIVAL_MEDIAN = """
WITH l AS (SELECT user_id,
                  (epoch_us(ts) - LAG(epoch_us(ts)) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id))
                    // 1000000 AS v
           FROM events),
g AS (SELECT user_id AS gk, v FROM l WHERE v IS NOT NULL),
r AS (SELECT gk, v, ROW_NUMBER() OVER (PARTITION BY gk ORDER BY v) AS rn,
             COUNT(*) OVER (PARTITION BY gk) AS n
      FROM g),
s AS (SELECT gk, CAST(MAX(n) AS BIGINT) AS n_rows,
             CAST(SUM(CASE WHEN rn = (n + 1) // 2 OR rn = (n + 2) // 2
                           THEN v ELSE 0 END) AS BIGINT) AS s
      FROM r GROUP BY gk)
SELECT gk AS user_id, n_rows,
       CASE WHEN n_rows % 2 = 1 THEN 2 * s ELSE s END AS median2
FROM s
"""


def q_week_overlap(sf_dir: str):
    """Week-over-week audience overlap: for each consecutive week pair,
    the Jaccard of the active-user sets — the retention-curve primitive
    as exact integer counts (n_w, n_w1, n_both) plus the one float
    division. Plan: global distinct (user, week) → bucketized per-user
    adjacent-week co-presence (diff == 1 on the sorted week runs, no
    per-user Python call) → tiny per-week count joins driver-side
    (weeks are single digits)."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def user_week(t: pa.Table) -> pa.Table:
        wk = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
              // 604_800_000_000)
        return pa.table({"user_id": t["user_id"].cast(pa.int64()), "wk": wk})

    duw = runtime.group_agg(
        ev.map_batches(user_week, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id", "wk"],
    )

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        uid = g["user_id"].to_numpy(np.int64)
        wk = g["wk"].to_numpy(np.int64)
        order = np.lexsort((wk, uid))
        u, w = uid[order], wk[order]
        adj = (u[1:] == u[:-1]) & (w[1:] == w[:-1] + 1)
        wb, nb = np.unique(w[:-1][adj], return_counts=True)
        ww, nw = np.unique(w, return_counts=True)
        return pd.DataFrame({
            "wk": np.concatenate([ww, wb]),
            "kind": np.concatenate([np.zeros(ww.size, np.int64),
                                    np.ones(wb.size, np.int64)]),
            "p_n": np.concatenate([nw, nb]).astype(np.int64),
        })

    agg = runtime.group_agg(
        runtime.by_key(duw, "user_id", per_bucket, pa.schema(
            [("wk", pa.int64()), ("kind", pa.int64()), ("p_n", pa.int64())])),
        ["wk", "kind"], {"n": ("sum", "p_n")},
    ).to_pandas()  # bounded: weeks × 2

    wk = agg["wk"].to_numpy().astype(np.int64)
    kind = agg["kind"].to_numpy().astype(np.int64)
    n = agg["n"].to_numpy().astype(np.int64)
    active = {int(w): int(v) for w, v, k in zip(wk, n, kind) if k == 0}
    both = {int(w): int(v) for w, v, k in zip(wk, n, kind) if k == 1}
    rows = []
    for w in sorted(active):
        if w + 1 not in active:
            continue
        nb = both.get(w, 0)
        n1, n2 = active[w], active[w + 1]
        rows.append((w, n1, n2, nb,
                     float(nb) / float(n1 + n2 - nb)))
    return pd.DataFrame(rows, columns=["week", "n_w", "n_w1", "n_both",
                                       "jaccard"])


SQL_WEEK_OVERLAP = """
WITH d AS (SELECT DISTINCT user_id,
                  epoch_us(ts) // 604800000000 AS wk FROM events),
cnt AS (SELECT wk, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY 1),
b AS (SELECT a.wk, CAST(COUNT(*) AS BIGINT) AS nb
      FROM d a JOIN d b2 ON b2.user_id = a.user_id AND b2.wk = a.wk + 1
      GROUP BY 1)
SELECT c1.wk AS week, c1.n AS n_w, c2.n AS n_w1,
       CAST(COALESCE(nb, 0) AS BIGINT) AS n_both,
       CAST(COALESCE(nb, 0) AS DOUBLE)
         / CAST(c1.n + c2.n - COALESCE(nb, 0) AS DOUBLE) AS jaccard
FROM cnt c1 JOIN cnt c2 ON c2.wk = c1.wk + 1
LEFT JOIN b ON b.wk = c1.wk
"""


def q_simpson_diversity(sf_dir: str):
    """Per-user Simpson concentration of event types — the diversity
    index whose numerator Σ nᵢ(nᵢ−1) and denominator n(n−1) are BOTH
    plain integers (unlike Shannon, no transcendental at all): λ→1 means
    one behavior dominates. Two-phase (user, type) counts → per-user
    rollup of the aggregate rows; users with a single event dropped
    (denominator zero)."""
    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def user_type(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"].cast(pa.int64()),
                         "t": t["event_type"]})

    per_type = runtime.group_agg(
        ev.map_batches(user_type, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id", "t"], {"n": ("count", None)},
    )

    def pair_term(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"user_id": t["user_id"], "n": n, "nn": n * (n - 1)})

    agg = runtime.group_agg(
        per_type.map_batches(pair_term, batch_format="pyarrow",
                             zero_copy_batch=True),
        "user_id",
        {"n_events": ("sum", "n"), "simpson_num": ("sum", "nn"),
         "n_types": ("count", None)},
    )

    def finalize(t: pa.Table) -> pa.Table:
        n = t["n_events"].to_numpy(zero_copy_only=False).astype(np.int64)
        num = t["simpson_num"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        keep = n > 1
        w = pa.array(keep)
        den = n[keep] * (n[keep] - 1)
        return pa.table({
            "user_id": t["user_id"].filter(w),
            "n_events": pa.array(n[keep]),
            "n_types": t["n_types"].filter(w),
            "simpson_num": pa.array(num[keep]),
            "simpson_den": pa.array(den),
            "simpson": num[keep].astype(np.float64)
            / den.astype(np.float64),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


SQL_SIMPSON_DIVERSITY = """
WITH c AS (SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n
           FROM events GROUP BY 1, 2),
m AS (SELECT user_id, CAST(SUM(n) AS BIGINT) AS n_events,
             CAST(COUNT(*) AS BIGINT) AS n_types,
             CAST(SUM(n * (n - 1)) AS BIGINT) AS simpson_num
      FROM c GROUP BY 1)
SELECT user_id, n_events, n_types, simpson_num,
       CAST(n_events * (n_events - 1) AS BIGINT) AS simpson_den,
       CAST(simpson_num AS DOUBLE)
         / CAST(n_events * (n_events - 1) AS DOUBLE) AS simpson
FROM m WHERE n_events > 1
"""


def q_benford_digits(sf_dir: str):
    """Benford first-digit audit of order totals (the fraud/data-quality
    screen): observed counts per leading digit of the cent amount vs the
    Benford expectation — expected_scaled = n·⌊10⁶·log₁₀(1+1/d)⌋ floored
    ONCE per digit (9 libm calls driver-side), so every emitted number is
    int64. Digit extraction is string-based on both sides (no float log
    near power-of-ten boundaries). One two-phase count."""
    import math

    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_totalprice"])

    def first_digit(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(zero_copy_only=False)
                         * 100).astype(np.int64)
        d = pd.Series(cents).astype(str).str[0].astype(np.int64).to_numpy()
        return pa.table({"digit": d})

    agg = runtime.group_agg(
        orders.map_batches(first_digit, batch_format="pyarrow",
                           zero_copy_batch=True),
        "digit", {"n": ("count", None)},
    ).to_pandas()  # bounded: 9 digits

    total = int(agg["n"].sum())
    rows = []
    for d, n in sorted(zip(agg["digit"].astype(int), agg["n"].astype(int))):
        b = math.floor(1_000_000 * math.log10(1 + 1 / float(d)))
        rows.append((int(d), int(n), np.int64(total) * b))
    return pd.DataFrame(rows, columns=["digit", "n", "expected_scaled"])


SQL_BENFORD_DIGITS = """
WITH c AS (SELECT CAST(substr(CAST(CAST(ROUND(o_totalprice * 100)
                     AS BIGINT) AS VARCHAR), 1, 1) AS BIGINT) AS digit
           FROM orders),
h AS (SELECT digit, CAST(COUNT(*) AS BIGINT) AS n FROM c GROUP BY 1),
t AS (SELECT CAST(SUM(n) AS BIGINT) AS total FROM h)
SELECT digit, n,
       CAST(total * CAST(FLOOR(1000000
              * log10(1 + 1 / CAST(digit AS DOUBLE))) AS BIGINT)
         AS BIGINT) AS expected_scaled
FROM h CROSS JOIN t
"""


def q_pareto_share(sf_dir: str):
    """Revenue concentration (the 80/20 check): exact integer revenue of
    the customers at or above the 99th-percentile customer-revenue
    boundary vs everyone — per-customer two-phase revenue sums, the
    distributed quantile boundary (quantile_disc rule, bit-matched),
    and one broadcast-compare pass. All int64; no floats anywhere."""
    from georay.ops import sketch as sketch_ops

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def line_rev(t: pa.Table) -> pa.Table:
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        pct = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "rev": cents * (100 - pct)})

    by_order = runtime.group_agg(
        li.map_batches(line_rev, batch_format="pyarrow",
                       zero_copy_batch=True),
        "o_orderkey", {"rev": ("sum", "rev")},
    )
    joined = runtime.join(by_order, orders, "inner", on=("o_orderkey",))

    def cust_rev(t: pa.Table) -> pa.Table:
        return pa.table({"c": t["o_custkey"].cast(pa.int64()),
                         "rev": t["rev"].cast(pa.int64())})

    by_cust = runtime.group_agg(
        joined.map_batches(cust_rev, batch_format="pyarrow",
                           zero_copy_batch=True),
        "c", {"crev": ("sum", "rev")},
    )

    def tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "g": pa.array(np.repeat("all", t.num_rows), pa.string()),
            "crev": t["crev"],
        })

    qdf = sketch_ops.grouped_quantiles(
        by_cust.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True),
        "g", "crev", qs=(0.99,),
    ).to_pandas()
    q99 = int(qdf["p99"].iloc[0])

    def split(t: pa.Table) -> pa.Table:
        r = t["crev"].to_numpy(zero_copy_only=False).astype(np.int64)
        top = r >= q99
        return pa.table({"top": top.astype(np.int64),
                         "toprev": np.where(top, r, 0), "rev": r})

    tot = runtime.group_agg(
        by_cust.map_batches(split, batch_format="pyarrow",
                            zero_copy_batch=True), [],
        {"n_cust": ("count", None), "top_n": ("sum", "top"),
         "top_rev_u": ("sum", "toprev"), "total_rev_u": ("sum", "rev")},
    ).to_pandas()
    tot.insert(2, "q99_rev", np.int64(q99))
    return tot


SQL_PARETO_SHARE = """
WITH rev AS (SELECT l_orderkey AS ok,
                    CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                             * (100 - CAST(ROUND(l_discount * 100)
                                           AS BIGINT))) AS BIGINT) AS r
             FROM lineitem GROUP BY 1),
bc AS (SELECT o_custkey, CAST(SUM(r) AS BIGINT) AS crev
       FROM orders JOIN rev ON ok = o_orderkey GROUP BY 1),
q AS (SELECT CAST(quantile_disc(crev, 0.99) AS BIGINT) AS q99 FROM bc)
SELECT CAST(COUNT(*) AS BIGINT) AS n_cust,
       CAST(COUNT(*) FILTER (crev >= q99) AS BIGINT) AS top_n,
       q99 AS q99_rev,
       CAST(COALESCE(SUM(crev) FILTER (crev >= q99), 0) AS BIGINT)
         AS top_rev_u,
       CAST(SUM(crev) AS BIGINT) AS total_rev_u
FROM bc CROSS JOIN q GROUP BY q99
"""


def q_spatial_entropy(sf_dir: str):
    """Global spatial entropy of the order distribution over BITS_TILE
    cells (the diversity scalar complementing cell_gini's inequality):
    H = ln N − Σ nᵢ·⌊10⁶·ln nᵢ⌋ / (10⁶·N) — the log is floored ONCE per
    cell-count value (lm_surprisal discipline), so the big sum is int64
    and order-free; ONE float expression at the end, identical on both
    sides."""
    import math

    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    ).to_pandas()  # bounded: ≤ 2^BITS_TILE occupied cells

    n = agg["n"].to_numpy().astype(np.int64)
    total = int(n.sum())
    ent_num = int(sum(
        int(c) * math.floor(1_000_000 * math.log(float(c))) for c in n
    ))
    h = math.log(float(total)) - float(ent_num) / (1_000_000.0
                                                   * float(total))
    return pd.DataFrame({
        "k_cells": [np.int64(len(n))], "total": [np.int64(total)],
        "ent_num": [np.int64(ent_num)], "entropy": [h],
    })


SQL_SPATIAL_ENTROPY = f"""
WITH c AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM orders GROUP BY 1, 2),
m AS (SELECT CAST(COUNT(*) AS BIGINT) AS k, CAST(SUM(n) AS BIGINT) AS total,
             CAST(SUM(n * CAST(FLOOR(1000000
                   * ln(CAST(n AS DOUBLE))) AS BIGINT)) AS BIGINT) AS ent_num
      FROM c)
SELECT k AS k_cells, total, ent_num,
       ln(CAST(total AS DOUBLE))
         - CAST(ent_num AS DOUBLE) / (1000000.0 * CAST(total AS DOUBLE))
         AS entropy
FROM m
"""


def q_cycle_time_median(sf_dir: str):
    """Order-cycle-time analytics: per priority class, the EXACT
    interpolated median of (last shipment − order date) in whole days —
    a two-phase per-order Max, one hash join to orders, integer day
    diffs, then ops.sketch.grouped_median2 (2×median stays int64).
    SQL twin: window-function percentile replay."""
    from georay.ops import sketch as sketch_ops

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def ship_us(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "us": t["l_shipdate"].cast(pa.int64())})

    last_ship = runtime.group_agg(
        li.map_batches(ship_us, batch_format="pyarrow",
                       zero_copy_batch=True),
        "o_orderkey", {"ship_us": ("max", "us")},
    )
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = runtime.join(last_ship, orders, "inner", on=("o_orderkey",))

    def days(t: pa.Table) -> pa.Table:
        ship = t["ship_us"].to_numpy(zero_copy_only=False)
        od = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        pri = np.asarray(t["o_orderpriority"].to_pylist())
        return pa.table({
            "pri": np.array([int(p[0]) for p in pri], dtype=np.int64),
            "days": (ship - od) // 86_400_000_000,
        })

    return sketch_ops.grouped_median2(
        joined.map_batches(days, batch_format="pyarrow",
                           zero_copy_batch=True),
        "pri", "days",
    )


SQL_CYCLE_TIME_MEDIAN = """
WITH ls AS (SELECT l_orderkey,
                   CAST(MAX(epoch_us(l_shipdate)) AS BIGINT) AS ship_us
            FROM lineitem GROUP BY 1),
v AS (SELECT CAST(substr(o_orderpriority, 1, 1) AS BIGINT) AS g,
             (ship_us - epoch_us(o_orderdate)) // 86400000000 AS v
      FROM orders JOIN ls ON l_orderkey = o_orderkey),
r AS (SELECT g, v, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v) AS rn,
             COUNT(*) OVER (PARTITION BY g) AS n
      FROM v),
s AS (SELECT g, CAST(MAX(n) AS BIGINT) AS n_rows,
             CAST(SUM(CASE WHEN rn = (n + 1) // 2 OR rn = (n + 2) // 2
                           THEN v ELSE 0 END) AS BIGINT) AS s
      FROM r GROUP BY g)
SELECT g AS pri, n_rows,
       CASE WHEN n_rows % 2 = 1 THEN 2 * s ELSE s END AS median2
FROM s
"""


def q_spherical_resultant(sf_dir: str):
    """Spherical dispersion per nation: each customer point becomes a
    3-D unit vector FLOORED to integers (⌊10⁹·cosφcosλ⌋, …) so the
    per-nation component sums are exact under any order; the resultant
    length R = |Σv|/(10⁹n) (the Fisher-concentration proxy — R→1 means
    the nation's points cluster on the sphere) is the one float
    expression, written with identical association order (explicit
    x·π/180, never radians()) on both sides."""
    import math

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    SC = 1_000_000_000

    def unit_vec(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        lam = lon * math.pi / 180.0
        phi = lat * math.pi / 180.0
        return pa.table({
            "c_nationkey": t["c_nationkey"].cast(pa.int64()),
            "vx": np.floor(SC * np.cos(phi) * np.cos(lam)).astype(np.int64),
            "vy": np.floor(SC * np.cos(phi) * np.sin(lam)).astype(np.int64),
            "vz": np.floor(SC * np.sin(phi)).astype(np.int64),
        })

    agg = runtime.group_agg(
        cust.map_batches(unit_vec, batch_format="pyarrow",
                         zero_copy_batch=True),
        "c_nationkey",
        {"sx": ("sum", "vx"), "sy": ("sum", "vy"), "sz": ("sum", "vz"),
         "n": ("count", None)},
    )

    def finalize(t: pa.Table) -> pa.Table:
        sx = t["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sy = t["sy"].to_numpy(zero_copy_only=False).astype(np.float64)
        sz = t["sz"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        r = np.sqrt(sx * sx + sy * sy + sz * sz) / (float(SC) * n)
        return pa.table({
            "c_nationkey": t["c_nationkey"], "n": t["n"],
            "sx": t["sx"], "sy": t["sy"], "sz": t["sz"],
            "r_len": r,
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def _sql_spherical_resultant() -> str:
    lon = sql_lon("c_custkey")
    lat = sql_lat("c_custkey")
    return f"""
WITH p AS (
  SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
    CAST(FLOOR(1000000000 * cos(({lat}) * pi() / 180.0)
               * cos(({lon}) * pi() / 180.0)) AS BIGINT) AS vx,
    CAST(FLOOR(1000000000 * cos(({lat}) * pi() / 180.0)
               * sin(({lon}) * pi() / 180.0)) AS BIGINT) AS vy,
    CAST(FLOOR(1000000000 * sin(({lat}) * pi() / 180.0)) AS BIGINT) AS vz
  FROM customer),
m AS (SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(vx) AS BIGINT) AS sx,
             CAST(SUM(vy) AS BIGINT) AS sy,
             CAST(SUM(vz) AS BIGINT) AS sz
      FROM p GROUP BY 1)
SELECT c_nationkey, n, sx, sy, sz,
       sqrt(CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)
            + CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)
            + CAST(sz AS DOUBLE) * CAST(sz AS DOUBLE))
         / (1000000000.0 * CAST(n AS DOUBLE)) AS r_len
FROM m
"""


SQL_SPHERICAL_RESULTANT = _sql_spherical_resultant()


def q_hour_concentration(sf_dir: str):
    """Circular concentration of each event type's hour-of-day profile —
    the mean resultant length R of directional statistics (R→0 uniform
    around the clock, →1 single-peaked). Per-HOUR unit vectors are
    floored to ints ONCE (24 driver-side libm values — the lm_surprisal
    discipline), so the distributed Σcos/Σsin are exact int64 dot
    products with the hour counts; the final R is one identical float
    expression. Plan: one two-phase (type, hour) count."""
    import math

    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_type", "ts"])

    def type_hour(t: pa.Table) -> pa.Table:
        hr = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
              // 3_600_000_000) % 24
        return pa.table({"et": t["event_type"], "hr": hr})

    agg = runtime.group_agg(
        ev.map_batches(type_hour, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["et", "hr"], {"n": ("count", None)},
    ).to_pandas()  # bounded: types × 24

    ci = np.array([math.floor(1_000_000 * math.cos(2 * math.pi * h / 24))
                   for h in range(24)], dtype=np.int64)
    si = np.array([math.floor(1_000_000 * math.sin(2 * math.pi * h / 24))
                   for h in range(24)], dtype=np.int64)
    rows = []
    for et in np.sort(agg["et"].unique()):
        sub = agg[agg["et"] == et]
        hr = sub["hr"].to_numpy().astype(np.int64)
        n = sub["n"].to_numpy().astype(np.int64)
        rx = int((ci[hr] * n).sum())
        ry = int((si[hr] * n).sum())
        tot = int(n.sum())
        r = math.sqrt(float(rx) * float(rx) + float(ry) * float(ry)) \
            / (1_000_000.0 * float(tot))
        rows.append((et, tot, np.int64(rx), np.int64(ry), r))
    return pd.DataFrame(rows, columns=["et", "n", "rx", "ry", "r_len"])


SQL_HOUR_CONCENTRATION = """
WITH x AS (SELECT event_type AS et,
                  (epoch_us(ts) // 3600000000) % 24 AS hr,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM events GROUP BY 1, 2),
u AS (SELECT hr,
             CAST(FLOOR(1000000 * cos(2 * pi() * hr / 24)) AS BIGINT) AS ci,
             CAST(FLOOR(1000000 * sin(2 * pi() * hr / 24)) AS BIGINT) AS si
      FROM (SELECT DISTINCT hr FROM x)),
m AS (SELECT et, CAST(SUM(n) AS BIGINT) AS n,
             CAST(SUM(ci * n) AS BIGINT) AS rx,
             CAST(SUM(si * n) AS BIGINT) AS ry
      FROM x JOIN u USING (hr) GROUP BY 1)
SELECT et, n, rx, ry,
       sqrt(CAST(rx AS DOUBLE) * CAST(rx AS DOUBLE)
            + CAST(ry AS DOUBLE) * CAST(ry AS DOUBLE))
         / (1000000.0 * CAST(n AS DOUBLE)) AS r_len
FROM m
"""


def q_lag1_autocorr(sf_dir: str):
    """Lag-1 autocorrelation of each user's ordered daily-count series —
    the time-series sibling of fano_burstiness: all six pair moments
    (n, Σa, Σb, Σab, Σaa, Σbb over adjacent pairs) are int64-exact from
    ONE bucketized segmented pass (no per-user Python call), and the
    Pearson r over pairs is the single float expression, identical
    association order both sides. Users with < 3 active days dropped
    (r undefined / zero-variance guard)."""
    import pandas as pd

    from georay.ops import buckets as bk

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def user_day(t: pa.Table) -> pa.Table:
        day = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86_400_000_000)
        return pa.table({"user_id": t["user_id"].cast(pa.int64()),
                         "day": day})

    daily = runtime.group_agg(
        ev.map_batches(user_day, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "day"], {"x": ("count", None)},
    )

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        uid = g["user_id"].to_numpy(np.int64)
        day = g["day"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.int64)
        order = np.lexsort((day, uid))
        u, xv = uid[order], x[order]
        starts = bk.segment_starts(u)
        a, b = xv[:-1], xv[1:]
        same = u[1:] == u[:-1]
        idx = np.flatnonzero(same)
        seg = np.searchsorted(starts, idx, side="right") - 1
        uu = u[starts]
        cols = {}
        for nm, v in (("n", np.ones(idx.size, np.int64)), ("sa", a[idx]),
                      ("sb", b[idx]), ("sab", a[idx] * b[idx]),
                      ("saa", a[idx] * a[idx]), ("sbb", b[idx] * b[idx])):
            acc = np.zeros(uu.size, np.int64)
            np.add.at(acc, seg, v)
            cols[nm] = acc
        out = pd.DataFrame({"user_id": uu, **cols})
        return out[out["n"] >= 2].reset_index(drop=True)

    agg = runtime.by_key(daily, "user_id", per_bucket, pa.schema(
        [(c, pa.int64())
         for c in ("user_id", "n", "sa", "sb", "sab", "saa", "sbb")])
    ).to_pandas()

    n = agg["n"].astype("int64")
    num = n * agg["sab"] - agg["sa"] * agg["sb"]
    dx = n * agg["saa"] - agg["sa"] ** 2
    dy = n * agg["sbb"] - agg["sb"] ** 2
    keep = (dx > 0) & (dy > 0)
    import math

    r = [float(a) / (math.sqrt(float(b)) * math.sqrt(float(c)))
         for a, b, c in zip(num[keep], dx[keep], dy[keep])]
    out = pd.DataFrame({
        "user_id": agg["user_id"][keep].astype("int64"),
        "n_pairs": n[keep], "num": num[keep].astype("int64"),
        "dx": dx[keep].astype("int64"), "dy": dy[keep].astype("int64"),
        "r1": r,
    })
    return out.sort_values("user_id").reset_index(drop=True)


SQL_LAG1_AUTOCORR = """
WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events),
a AS (SELECT user_id, day, CAST(COUNT(*) AS BIGINT) AS x
      FROM e GROUP BY 1, 2),
l AS (SELECT user_id, x AS b,
             LAG(x) OVER (PARTITION BY user_id ORDER BY day) AS a
      FROM a),
m AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(a) AS BIGINT) AS sa, CAST(SUM(b) AS BIGINT) AS sb,
             CAST(SUM(a * b) AS BIGINT) AS sab,
             CAST(SUM(a * a) AS BIGINT) AS saa,
             CAST(SUM(b * b) AS BIGINT) AS sbb
      FROM l WHERE a IS NOT NULL GROUP BY 1)
SELECT user_id, n AS n_pairs,
       CAST(n * sab - sa * sb AS BIGINT) AS num,
       CAST(n * saa - sa * sa AS BIGINT) AS dx,
       CAST(n * sbb - sb * sb AS BIGINT) AS dy,
       CAST(n * sab - sa * sb AS DOUBLE)
         / (sqrt(CAST(n * saa - sa * sa AS DOUBLE))
            * sqrt(CAST(n * sbb - sb * sb AS DOUBLE))) AS r1
FROM m
WHERE n >= 2 AND n * saa - sa * sa > 0 AND n * sbb - sb * sb > 0
"""


COVER_RADIUS = 8.0  # degrees (== HUFF_RADIUS, defined later in-file)


def q_facility_coverage(sf_dir: str):
    """Coverage metric: how many customers sit within 8° of AT LEAST one
    supplier (the service-coverage KPI). Semi-join shape: the broadcast
    ring join emits pairs, a batch-local distinct on the demand id
    collapses them, one tiny groupby dedups globally, and the answer is
    two ints (covered, total). SQL twin: EXISTS."""
    import pandas as pd

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    total = cust.count()
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    supp = _small_points(
        _read_table(sf_dir, "supplier", columns=["s_suppkey"]),
        "s_suppkey", BITS_JOIN,
    )
    pairs = knn_ops.dwithin_ring(
        cust, supp, bits=BITS_JOIN, radius=COVER_RADIUS,
        query_cols=["c_custkey"], ref_id="s_suppkey",
    )

    covered = runtime.group_agg(
        pairs.select_columns(["c_custkey"]), "c_custkey"
    ).count()
    return pd.DataFrame({
        "covered": [np.int64(covered)], "total": [np.int64(total)],
    })


SQL_FACILITY_COVERAGE = f"""
WITH c AS ({{c_cte}}),
     s AS ({{s_cte}})
SELECT CAST(COUNT(*) FILTER (EXISTS (
         SELECT 1 FROM s
         WHERE (c.lon - s.lon) * (c.lon - s.lon)
             + (c.lat - s.lat) * (c.lat - s.lat)
               <= {COVER_RADIUS} * {COVER_RADIUS})) AS BIGINT) AS covered,
       CAST(COUNT(*) AS BIGINT) AS total
FROM c
""".format(
    c_cte=_sql_point_cte("customer", "c_custkey", BITS_JOIN),
    s_cte=_sql_point_cte("supplier", "s_suppkey", BITS_JOIN),
)


def q_longest_streak(sf_dir: str):
    """Longest run of CONSECUTIVE active days per user — the classic
    gaps-and-islands on integers: after a two-phase (user, day) distinct,
    island id = day − position (constant within a consecutive run), and
    the answer is the max run length. Bucketized segmented numpy — one
    sort per bucket, no per-user Python call. SQL twin: the day −
    ROW_NUMBER() island trick."""
    from georay.ops import buckets as bk

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def user_day(t: pa.Table) -> pa.Table:
        day = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86_400_000_000)
        return pa.table({"user_id": t["user_id"].cast(pa.int64()),
                         "day": day})

    daily = runtime.group_agg(
        ev.map_batches(user_day, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "day"],
    )

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        day = g["day"].to_numpy()
        order = np.lexsort((day, uid))
        u, d = uid[order], day[order]
        starts = bk.segment_starts(u)
        counts = bk.segment_counts(starts, u.size)
        pos = bk.position_in_segment(starts, counts, u.size)
        island = d - pos  # constant within a consecutive run
        key = u * (np.int64(1) << 25) + island  # day < 2^24 ⇒ island fits
        uk, inv = np.unique(key, return_inverse=True)
        run = np.bincount(inv, minlength=uk.size).astype(np.int64)
        users = uk >> 25
        uu = np.unique(users)
        best = np.zeros(uu.size, np.int64)
        np.maximum.at(best, np.searchsorted(uu, users), run)
        return pa.table({"user_id": uu, "p_best": best})

    return runtime.group_agg(
        runtime.by_key(daily, "user_id", per_bucket, pa.schema(
            [("user_id", pa.int64()), ("p_best", pa.int64())])),
        "user_id", {"longest_streak": ("max", "p_best")},
    )


SQL_LONGEST_STREAK = """
WITH e AS (SELECT DISTINCT user_id,
                  epoch_us(ts) // 86400000000 AS day FROM events),
r AS (SELECT user_id, day,
             day - ROW_NUMBER() OVER (
               PARTITION BY user_id ORDER BY day) AS island
      FROM e),
runs AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS len
         FROM r GROUP BY user_id, island)
SELECT user_id, CAST(MAX(len) AS BIGINT) AS longest_streak
FROM runs GROUP BY user_id
"""


KS_TILE_CUT_US = 1_705_276_800_000_000  # 2024-01-15


def q_ks_by_tile(sf_dir: str):
    """Spatiotemporal drift: per-TILE two-sample KS between the event
    value distributions before vs after Jan 15 (ops.sketch.ks2_by_group
    keyed by the 32×32 tile — did this REGION's data change?). Integer
    cross-multiplied CDF deviations; tiles seeing only one half dropped."""
    from georay.ops import sketch as sketch_ops

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        xi = (eid * HASH_LON) % 360000
        yi = (eid * HASH_LAT) % 180000
        val = np.round(t["value"].to_numpy(zero_copy_only=False)
                       * 100).astype(np.int64) // 100
        return pa.table({
            "tile": (xi // 11250) * 32 + yi // 5625,
            "val": val,
            "flag": np.where(us < KS_TILE_CUT_US, np.int64(1), np.int64(2)),
        })

    binned = ev.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    return sketch_ops.ks2_by_group(binned, "tile", "val", "flag")


SQL_KS_BY_TILE = f"""
WITH v AS (
  SELECT (((event_id * {HASH_LON}) % 360000) // 11250) * 32
         + ((event_id * {HASH_LAT}) % 180000) // 5625 AS tile,
         CAST(ROUND(value * 100) AS BIGINT) // 100 AS val,
         CASE WHEN epoch_us(ts) < {KS_TILE_CUT_US} THEN 1 ELSE 2 END AS g
  FROM events),
h AS (SELECT tile, val,
             CAST(COUNT(*) FILTER (g = 1) AS BIGINT) AS c1,
             CAST(COUNT(*) FILTER (g = 2) AS BIGINT) AS c2
      FROM v GROUP BY 1, 2),
w AS (SELECT tile, val,
             CAST(SUM(c1) OVER (PARTITION BY tile ORDER BY val)
               AS BIGINT) AS cum1,
             CAST(SUM(c2) OVER (PARTITION BY tile ORDER BY val)
               AS BIGINT) AS cum2,
             CAST(SUM(c1) OVER (PARTITION BY tile) AS BIGINT) AS n1,
             CAST(SUM(c2) OVER (PARTITION BY tile) AS BIGINT) AS n2
      FROM h),
d AS (SELECT tile, val, n1, n2, abs(n2 * cum1 - n1 * cum2) AS dev
      FROM w WHERE n1 > 0 AND n2 > 0)
SELECT tile, n1, n2, CAST(dev AS BIGINT) AS ks_num,
       CAST(n1 * n2 AS BIGINT) AS ks_den, val AS arg_value,
       CAST(dev AS DOUBLE) / CAST(n1 * n2 AS DOUBLE) AS ks
FROM d
QUALIFY ROW_NUMBER() OVER (PARTITION BY tile ORDER BY dev DESC, val) = 1
"""


def q_fano_burstiness(sf_dir: str):
    """Fano factor (variance-to-mean dispersion) of each user's daily
    event counts — the burstiness scalar: F = (n·Σx² − (Σx)²) / (n·Σx)
    with both sides int64-exact, one float division (F ≈ 1 Poisson,
    > 1 bursty). One two-phase (user, day) count, then integer moment
    partials per user."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def user_day(t: pa.Table) -> pa.Table:
        day = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86_400_000_000)
        return pa.table({"user_id": t["user_id"].cast(pa.int64()),
                         "day": day})

    daily = runtime.group_agg(
        ev.map_batches(user_day, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "day"], {"x": ("count", None)},
    )

    def square(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False)
        return pa.table({"user_id": t["user_id"], "x": x, "xx": x * x})

    agg = runtime.group_agg(
        daily.map_batches(square, batch_format="pyarrow",
                          zero_copy_batch=True),
        "user_id",
        {"n_days": ("count", None), "sx": ("sum", "x"), "sxx": ("sum", "xx")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        n = t["n_days"].to_numpy(zero_copy_only=False).astype(np.int64)
        sx = t["sx"].to_numpy(zero_copy_only=False).astype(np.int64)
        sxx = t["sxx"].to_numpy(zero_copy_only=False).astype(np.int64)
        num = n * sxx - sx * sx
        den = n * sx
        return pa.table({
            "user_id": t["user_id"], "n_days": pa.array(n),
            "fano_num": num, "fano_den": den,
            "fano": num.astype(np.float64) / den.astype(np.float64),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


SQL_FANO_BURSTINESS = """
WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events),
a AS (SELECT user_id, day, CAST(COUNT(*) AS BIGINT) AS x
      FROM e GROUP BY 1, 2),
m AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_days,
             CAST(SUM(x) AS BIGINT) AS sx,
             CAST(SUM(x * x) AS BIGINT) AS sxx
      FROM a GROUP BY 1)
SELECT user_id, n_days,
       CAST(n_days * sxx - sx * sx AS BIGINT) AS fano_num,
       CAST(n_days * sx AS BIGINT) AS fano_den,
       CAST(n_days * sxx - sx * sx AS DOUBLE)
         / CAST(n_days * sx AS DOUBLE) AS fano
FROM m
"""


def q_nn_distance_hist(sf_dir: str):
    """Nearest-neighbor distance distribution (Ripley's G function, the
    complement of the ripley_pairs K): every customer's EXACT 1-NN
    squared distance to another customer via the adaptive ring-expansion
    kNN (k=2, self dropped — a zero-distance duplicate co-point still
    yields the correct nearest other), floor-binned and two-phase
    counted. SQL twin: self-join MIN + the same floor bin."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    refs = _small_points(
        _read_table(sf_dir, "customer", columns=["c_custkey"]),
        "c_custkey", BITS_JOIN,
    ).rename_columns(["ref_id", "lon", "lat", "cell", "cx", "cy"])
    out = knn_ops.knn_adaptive(
        cust, refs, bits=BITS_JOIN, k=2,
        query_cols=["c_custkey"], ref_id="ref_id",
    )

    def drop_self(t: pa.Table) -> pa.Table:
        q = t["c_custkey"].to_numpy(zero_copy_only=False)
        r = t["ref_id"].to_numpy(zero_copy_only=False)
        keep = pa.array(q != r)
        return pa.table({"c_custkey": t["c_custkey"].filter(keep),
                         "d2": t["dist2"].filter(keep)})

    nn = runtime.group_agg(
        out.map_batches(drop_self, batch_format="pyarrow",
                        zero_copy_batch=True),
        "c_custkey", {"mind2": ("min", "d2")},
    )

    def binify(t: pa.Table) -> pa.Table:
        b = np.floor(t["mind2"].to_numpy(zero_copy_only=False)).astype(
            np.int64)
        return pa.table({"bin": b})

    return runtime.group_agg(
        nn.map_batches(binify, batch_format="pyarrow", zero_copy_batch=True),
        "bin", {"n": ("count", None)},
    )


SQL_NN_DISTANCE_HIST = """
WITH c AS ({c_cte}),
nn AS (SELECT a.c_custkey,
              MIN((a.lon - b.lon) * (a.lon - b.lon)
                + (a.lat - b.lat) * (a.lat - b.lat)) AS d2
       FROM c a JOIN c b ON b.c_custkey <> a.c_custkey
       GROUP BY 1)
SELECT CAST(FLOOR(d2) AS BIGINT) AS bin, CAST(COUNT(*) AS BIGINT) AS n
FROM nn GROUP BY 1
""".format(c_cte=_sql_point_cte("customer", "c_custkey", BITS_JOIN))


def q_gains_deciles(sf_dir: str):
    """Gains / lift table: orders binned into value deciles by the
    DISTRIBUTED quantile boundaries (quantile_disc rule, bit-matched),
    counting per decile how many are URGENT — the model-evaluation gains
    chart as a pipeline. Boundary rule identical on both sides:
    decile = 1 + #boundaries strictly below the value; integer counts
    only."""
    from georay.ops import sketch as sketch_ops

    orders = _read(sf_dir, "orders",
                   columns=["o_orderpriority", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        pri = np.asarray(t["o_orderpriority"].to_pylist())
        return pa.table({
            "g": pa.array(np.repeat("all", len(pri)), pa.string()),
            "cents": np.round(t["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100).astype(np.int64),
            "pos": np.where(pri == "1-URGENT", np.int64(1), np.int64(0)),
        })

    oc = orders.map_batches(cents, batch_format="pyarrow",
                            zero_copy_batch=True)
    qs = tuple(i / 10 for i in range(1, 10))
    qdf = sketch_ops.grouped_quantiles(
        oc.select_columns(["g", "cents"]), "g", "cents", qs=qs,
    ).to_pandas()
    bounds = np.array([int(qdf[f"p{int(q * 100):02d}"].iloc[0])
                       for q in qs], dtype=np.int64)
    deciles = runtime.broadcast(bounds)

    def decile(t: pa.Table) -> pa.Table:
        b = deciles()
        c = t["cents"].to_numpy(zero_copy_only=False)
        d = 1 + (c[:, None] > b[None, :]).sum(1).astype(np.int64)
        return pa.table({"decile": d, "pos": t["pos"]})

    return runtime.group_agg(
        oc.map_batches(decile, batch_format="pyarrow", zero_copy_batch=True),
        "decile", {"n": ("count", None), "n_pos": ("sum", "pos")},
    )


SQL_GAINS_DECILES = """
WITH oc AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents,
                   CASE WHEN o_orderpriority = '1-URGENT'
                        THEN 1 ELSE 0 END AS pos
            FROM orders),
b AS (SELECT {bounds} FROM oc),
d AS (SELECT CAST(1 {terms} AS BIGINT) AS decile, pos
      FROM oc CROSS JOIN b)
SELECT decile, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(pos) AS BIGINT) AS n_pos
FROM d GROUP BY 1
""".format(
    bounds=", ".join(
        f"CAST(quantile_disc(cents, {i / 10}) AS BIGINT) AS b{i}"
        for i in range(1, 10)),
    terms=" ".join(f"+ CASE WHEN cents > b{i} THEN 1 ELSE 0 END"
                   for i in range(1, 10)),
)


CENT_EPS, CENT_MIN_PTS = 18.0, 3  # loose enough for sparse sf0.001


def q_dbscan_centroids(sf_dir: str):
    """Cluster summarization over grid-DBSCAN: per-cluster point count
    and EXACT integer centroid numerators (Σ of the milli-degree synth
    coords — the lon/lat floats derive from these ints, so no float sum
    ever shuffles; centroid = sums / (1000·n) − offset is the caller's
    one division). Composition: ops.dbscan.grid_dbscan → noise filter →
    two-phase integer sums per cluster."""
    from georay.ops import dbscan as dbscan_ops

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    out = dbscan_ops.grid_dbscan(
        cust, bits=BITS_JOIN, eps=CENT_EPS, min_pts=CENT_MIN_PTS,
        id_col="c_custkey", num_partitions=8,
    )

    def milli_xy(t: pa.Table) -> pa.Table:
        cl = t["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = cl != -1
        cl, k = cl[keep], k[keep]
        return pa.table({"cluster": cl, "xi": (k * HASH_LON) % 360000,
                         "yi": (k * HASH_LAT) % 180000})

    return runtime.group_agg(
        out.map_batches(milli_xy, batch_format="pyarrow",
                        zero_copy_batch=True),
        "cluster",
        {"n": ("count", None), "sum_xi": ("sum", "xi"),
         "sum_yi": ("sum", "yi")},
    )


SQL_DBSCAN_CENTROIDS = (
    SQL_GRID_DBSCAN[: SQL_GRID_DBSCAN.rindex("SELECT d.pid")].rstrip()
    .replace("<= 6.0 * 6.0", "<= 18.0 * 18.0")
    .replace("cnt >= 4", "cnt >= 3")
    + ",\n"
    + f"""asg AS (SELECT d.pid AS ck,
              CAST(COALESCE(l.lbl, -1) AS BIGINT) AS cluster
       FROM deg d LEFT JOIN lab l ON l.pid = d.pid)
SELECT cluster, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM((ck * {HASH_LON}) % 360000) AS BIGINT) AS sum_xi,
       CAST(SUM((ck * {HASH_LAT}) % 180000) AS BIGINT) AS sum_yi
FROM asg WHERE cluster <> -1 GROUP BY 1
"""
)


# ---------------------------------------------------------------- box join

BOX_S, BOX_NX, BOX_NY = 11250, 32, 16


def _int_boxes(t: pa.Table, key: str, base_w: int, mod_w: int) -> pa.Table:
    """Deterministic integer box per key on the 360000×180000 milli-degree
    grid (clipped to the domain)."""
    k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
    xi = (k * HASH_LON) % 360000
    yi = (k * HASH_LAT) % 180000
    hw = base_w + (k * 7) % mod_w
    hh = base_w + (k * 11) % mod_w
    return pa.table(
        {
            key: t[key],
            "x0": pa.array(np.maximum(xi - hw, 0)),
            "y0": pa.array(np.maximum(yi - hh, 0)),
            "x1": pa.array(np.minimum(xi + hw, 360000)),
            "y1": pa.array(np.minimum(yi + hh, 180000)),
        }
    )


def _sql_int_boxes(table: str, key: str, base_w: int, mod_w: int) -> str:
    return f"""
SELECT {key},
  GREATEST(({key} * {HASH_LON}) % 360000 - ({base_w} + ({key} * 7) % {mod_w}), 0) AS x0,
  GREATEST(({key} * {HASH_LAT}) % 180000 - ({base_w} + ({key} * 11) % {mod_w}), 0) AS y0,
  LEAST(({key} * {HASH_LON}) % 360000 + ({base_w} + ({key} * 7) % {mod_w}), 360000) AS x1,
  LEAST(({key} * {HASH_LAT}) % 180000 + ({base_w} + ({key} * 11) % {mod_w}), 180000) AS y1
FROM {table}"""


def q_box_join(sf_dir: str):
    """Spatial join of EXTENDED objects (box overlap, closed rectangles):
    each box flat-maps to its grid cells, ONE hash join on the cell, exact
    integer overlap filter — and the REPORT-ONCE trick (only the cell
    holding the intersection's min corner emits the pair) replaces any
    dedup shuffle (ops.join.box_overlap_join)."""
    from georay.ops import join as join_ops

    cust = _read(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        lambda t: _int_boxes(t, "c_custkey", 1500, 2500),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    supp = _read(sf_dir, "supplier", columns=["s_suppkey"]).map_batches(
        lambda t: _int_boxes(t, "s_suppkey", 4000, 6000),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return join_ops.box_overlap_join(
        cust, supp, cell_size=BOX_S, nx=BOX_NX, ny=BOX_NY,
        a_id="c_custkey", b_id="s_suppkey", num_partitions=8, coalesce=4,
    )


SQL_BOX_JOIN = f"""
WITH a AS ({_sql_int_boxes('customer', 'c_custkey', 1500, 2500)}),
     b AS ({_sql_int_boxes('supplier', 's_suppkey', 4000, 6000)})
SELECT a.c_custkey, b.s_suppkey,
       CAST((LEAST(a.x1, b.x1) - GREATEST(a.x0, b.x0))
          * (LEAST(a.y1, b.y1) - GREATEST(a.y0, b.y0)) AS BIGINT) AS inter_area
FROM a JOIN b
  ON a.x0 <= b.x1 AND b.x0 <= a.x1 AND a.y0 <= b.y1 AND b.y0 <= a.y1
"""


# ------------------------------------------------------------------------ PIP

PIP_W, PIP_H = 30.0, 20.0


def _nation_boxes(sf_dir: str):
    nat = _read_table(sf_dir, "nation", columns=["n_nationkey"])
    keys = nat["n_nationkey"].to_numpy().astype(np.int64)
    lon0 = ((keys * HASH_LON) % 300000) / 1000.0 - 150.0 + 0.0005
    lat0 = ((keys * 40503) % 140000) / 1000.0 - 80.0 + 0.0005
    from georay.geometry import make_box_ring

    rings = [make_box_ring(lon0[i], lat0[i], PIP_W, PIP_H) for i in range(keys.size)]
    return keys.tolist(), rings


def q_pip(sf_dir: str):
    """Ray-cast point-in-polygon as stateless tasks over the broadcast polygon
    index (one copy per worker process); the SQL twin reduces to box-range
    predicates (boxes are offset off the synthetic coordinate lattice so no
    point lies on a boundary)."""
    ids, rings = _nation_boxes(sf_dir)
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", 12, xy=False, cell=False)
    out = pip_ops.pip_assign(
        cust, ids, rings, bits=12, keep_cols=["c_custkey"], poly_id_col="n_nationkey"
    )
    return out


SQL_PIP = f"""
WITH c AS (SELECT c_custkey, {sql_lon('c_custkey')} AS lon,
                  {sql_lat('c_custkey')} AS lat FROM customer),
     n AS (SELECT n_nationkey,
                  ((n_nationkey * {HASH_LON}) % 300000) / 1000.0 - 150.0 + 0.0005 AS lon0,
                  ((n_nationkey * 40503) % 140000) / 1000.0 - 80.0 + 0.0005 AS lat0
           FROM nation)
SELECT c.c_custkey, CAST(n.n_nationkey AS BIGINT) AS n_nationkey
FROM c JOIN n
  ON c.lon > n.lon0 AND c.lon < n.lon0 + {PIP_W!r}
 AND c.lat > n.lat0 AND c.lat < n.lat0 + {PIP_H!r}
"""


# ---------------------------------------------------------------- tile counts


def q_tile_counts(sf_dir: str):
    """Tile assignment over the big fact table with two-phase aggregation."""
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])

    def keyed(t: pa.Table) -> pa.Table:
        key = (
            t["l_orderkey"].to_numpy(zero_copy_only=False) * 8
            + t["l_linenumber"].to_numpy(zero_copy_only=False)
        )
        lon, lat = spatial.synth_lonlat(key)
        cell = codec.encode(lon, lat, BITS_TILE)
        return pa.table({"cell": cell.astype(np.int64)})

    keyed_ds = li.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return tiles.tile_counts(keyed_ds, BITS_TILE)


SQL_TILE_COUNTS = f"""
WITH p AS (SELECT {sql_lon('l_orderkey * 8 + l_linenumber')} AS lon,
                  {sql_lat('l_orderkey * 8 + l_linenumber')} AS lat FROM lineitem)
SELECT {sql_x('lon', 5)} AS tile_x, {sql_y('lat', 5)} AS tile_y,
       COUNT(*) AS n
FROM p GROUP BY 1, 2
"""


def q_tile_centroid(sf_dir: str):
    """Per-tile centroid + dispersion of the image capture points: exact
    int64 milli-degree sums (Σx, Σy, Σx², Σy²) via the two-phase partial
    idiom, means as ONE double division each — the zonal-statistics shape
    for continuous coordinates (zonal_stats covers per-polygon; this is
    per-cell)."""
    from georay import fixtures

    ds = fixtures.read_images(sf_dir, columns=["lon", "lat"])

    def milli(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        xi = np.floor(lon * 1000).astype(np.int64)
        yi = np.floor(lat * 1000).astype(np.int64)
        return pa.table({
            "cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64),
            "xi": xi, "yi": yi, "xi2": xi * xi, "yi2": yi * yi,
        })

    agg = runtime.group_agg(
        ds.map_batches(milli, batch_format="pyarrow", zero_copy_batch=True),
        "cell",
        {"n": ("count", None), "sum_x": ("sum", "xi"), "sum_y": ("sum", "yi"),
         "sum_x2": ("sum", "xi2"), "sum_y2": ("sum", "yi2")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        n = t["n"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tile_x": pa.array(x), "tile_y": pa.array(y),
                "n": t["n"], "sum_x": t["sum_x"], "sum_y": t["sum_y"],
                "sum_x2": t["sum_x2"], "sum_y2": t["sum_y2"],
                "mean_x": pa.array(
                    t["sum_x"].to_numpy(zero_copy_only=False) / n
                ),
                "mean_y": pa.array(
                    t["sum_y"].to_numpy(zero_copy_only=False) / n
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def sql_tile_centroid(n: int) -> str:
    return f"""
WITH p AS ({_sql_img_coords(n)}),
c AS (SELECT {sql_x('lon', 5)} AS tile_x, {sql_y('lat', 5)} AS tile_y,
             CAST(FLOOR(lon * 1000) AS BIGINT) AS xi,
             CAST(FLOOR(lat * 1000) AS BIGINT) AS yi
      FROM p)
SELECT tile_x, tile_y, COUNT(*) AS n,
       CAST(SUM(xi) AS BIGINT) AS sum_x, CAST(SUM(yi) AS BIGINT) AS sum_y,
       CAST(SUM(xi * xi) AS BIGINT) AS sum_x2,
       CAST(SUM(yi * yi) AS BIGINT) AS sum_y2,
       CAST(SUM(xi) AS DOUBLE) / COUNT(*) AS mean_x,
       CAST(SUM(yi) AS DOUBLE) / COUNT(*) AS mean_y
FROM c GROUP BY tile_x, tile_y
"""


PYRAMID_LEVELS = 3


def q_tile_pyramid(sf_dir: str):
    """Zoom-pyramid tile counts (web-map pyramid z → z−1 → z−2) over the
    lineitem fact points in ONE pass + ONE shuffle: per-batch partials for
    the base zoom, coarser levels derived from the previous level's unique
    tiles (O(distinct), not O(rows)), single grouped sum for all levels.
    The SQL twin is a UNION ALL of per-level aggregates on floor-divided
    grid coordinates — level ℓ tile (x,y) = base (x>>ℓ, y>>ℓ)."""
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])

    def keyed(t: pa.Table) -> pa.Table:
        key = (
            t["l_orderkey"].to_numpy(zero_copy_only=False) * 8
            + t["l_linenumber"].to_numpy(zero_copy_only=False)
        )
        lon, lat = spatial.synth_lonlat(key)
        cell = codec.encode(lon, lat, BITS_TILE)
        return pa.table({"cell": cell.astype(np.int64)})

    keyed_ds = li.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return tiles.pyramid_counts(keyed_ds, BITS_TILE, levels=PYRAMID_LEVELS)


def _sql_tile_pyramid() -> str:
    base = f"""
p AS (SELECT {sql_x(sql_lon('l_orderkey * 8 + l_linenumber'), 5)} AS x,
             {sql_y(sql_lat('l_orderkey * 8 + l_linenumber'), 5)} AS y
      FROM lineitem)"""
    parts = [
        f"""SELECT CAST({lvl} AS BIGINT) AS level, x // {1 << lvl} AS tile_x,
       y // {1 << lvl} AS tile_y, COUNT(*) AS n FROM p GROUP BY 1, 2, 3"""
        for lvl in range(PYRAMID_LEVELS)
    ]
    return "WITH " + base + "\n" + "\nUNION ALL\n".join(parts)


SQL_TILE_PYRAMID = _sql_tile_pyramid()


def q_tile_quadkeys(sf_dir: str):
    """Per-quadkey customer counts: points → even-bits cell → Bing-maps
    quadkey STRING (web-map y flip; parent = string prefix), then the
    generic two-phase string-keyed count. The SQL twin rebuilds the digit
    string with per-level floor-division/parity arithmetic."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])

    def to_qk(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        cell = codec.encode(lon, lat, BITS_TILE)
        return pa.table({"quadkey": cells.cell_to_quadkey(cell, BITS_TILE)})

    qk = cust.map_batches(to_qk, batch_format="pyarrow", zero_copy_batch=True)
    return tiles.count_by(qk, "quadkey")


def _sql_tile_quadkeys() -> str:
    z = BITS_TILE // 2
    ny_max = (1 << (BITS_TILE // 2)) - 1  # even bits: ny = bits/2
    digits = " || ".join(
        f"CAST((yw // {1 << (z - 1 - i)}) % 2 * 2 + (x // {1 << (z - 1 - i)}) % 2 "
        f"AS VARCHAR)"
        for i in range(z)
    )
    return f"""
WITH p AS (SELECT {sql_x(sql_lon('c_custkey'), 5)} AS x,
                  {ny_max} - {sql_y(sql_lat('c_custkey'), 5)} AS yw
           FROM customer)
SELECT {digits} AS quadkey, COUNT(*) AS n FROM p GROUP BY 1
"""


SQL_TILE_QUADKEYS = _sql_tile_quadkeys()


# --------------------------------------------------------------- lineitem agg


def q1_lineitem(sf_dir: str):
    """Flagship columnar aggregate (TPC-H Q1 shape): per-batch partial
    aggregation, then a tiny groupby over partials. Money pre-scaled to
    integer cents per row so sums are execution-order-exact."""
    li = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_shipdate",
        ],
    )
    cutoff = np.datetime64("1998-09-02T00:00:00", "us")

    def scaled(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(cutoff)))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64),
            "cents": np.round(
                t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64),
        })

    return runtime.group_agg(
        li.map_batches(scaled, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("sum", "qty"), "sum_base_cents": ("sum", "cents"),
         "n_rows": ("count", None)},
    )


SQL_Q1 = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       COUNT(*) AS n_rows
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


# -------------------------------------------------------------- events window


def q_events_window(sf_dir: str):
    """Tumbling 1-day window per event_type (streaming-shaped workload as a
    batch groupby; values floor-scaled to ints for order-exact sums)."""
    ev = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def day_milli(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        milli = np.floor(t["value"].to_numpy(zero_copy_only=False) * 1000).astype(
            np.int64
        )
        return pa.table({"event_type": t["event_type"],
                         "day": us // (86_400 * 1_000_000), "milli": milli})

    return runtime.group_agg(
        ev.map_batches(day_milli, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "day"],
        {"n": ("count", None), "sum_val_milli": ("sum", "milli")},
    )


SQL_EVENTS_WINDOW = """
SELECT event_type,
       CAST(FLOOR(EPOCH(ts) / 86400.0) AS BIGINT) AS day,
       COUNT(*) AS n,
       CAST(SUM(CAST(FLOOR(value * 1000) AS BIGINT)) AS BIGINT) AS sum_val_milli
FROM events
GROUP BY 1, 2
"""


# ---------------------------------------------------------------- exact dedup


def q_dedup_docs(sf_dir: str):
    """Exact dedup, first-wins by min doc_id, keyed on a 40-char content
    prefix (hash-partition on the key; only (key, id) shuffles, not rows)."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def key(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "k": pc.utf8_slice_codeunits(t["text"], 0, 40),
                "doc_id": t["doc_id"],
            }
        )

    agg = runtime.group_agg(
        docs.map_batches(key, batch_format="pyarrow", zero_copy_batch=True),
        "k", {"doc_id": ("min", "doc_id"), "n_copies": ("count", None)},
    )
    return agg.select_columns(["doc_id", "n_copies"])


SQL_DEDUP_DOCS = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id, COUNT(*) AS n_copies
FROM documents GROUP BY substr(text, 1, 40)
"""


# ---------------------------------------------------------------- token stats


# GPT-2-style pretokenizer shape, restricted to constructs with identical
# semantics in Python re and DuckDB's RE2 (leftmost-first alternation,
# ASCII classes) — verified token-count-identical on the corpus
BPE_PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s']+|\s+"


def q_token_stats(sf_dir: str):
    """Whitespace token count + BPE-ish regex token count (the two
    counting modes a training-data pipeline budgets with) + char length,
    all vectorized kernels (pyarrow / pandas str.count)."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        spaces = pc.count_substring(t["text"], " ")
        n_tokens = pc.add(pc.cast(spaces, pa.int64()), 1)
        n_chars = pc.cast(pc.utf8_length(t["text"]), pa.int64())
        n_bpe = pd.Series(
            t["text"].to_pandas()
        ).str.count(BPE_PATTERN).to_numpy().astype(np.int64)
        return pa.table(
            {"doc_id": t["doc_id"], "n_tokens": n_tokens,
             "n_bpe_tokens": pa.array(n_bpe), "n_chars_out": n_chars}
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


SQL_TOKEN_STATS = f"""
SELECT doc_id,
       CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
       CAST(len(regexp_extract_all(text,
            '{BPE_PATTERN.replace("'", "''")}')) AS BIGINT) AS n_bpe_tokens,
       CAST(length(text) AS BIGINT) AS n_chars_out
FROM documents
"""


# -------------------------------------------------------------------- ANN topk


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k per query against a broadcast query matrix
    (ops.similarity.brute_topk — per-batch matmul + local top-k, tiny
    per-query merge)."""
    from georay.ops import similarity as sim

    q_table = _read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mask = (q_table["vec_id"].to_numpy() % 10) == 0
    q_ids = q_table["vec_id"].to_numpy()[mask]
    q_mat = sim.emb_matrix(q_table["embedding"])[mask]
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = sim.brute_topk(emb, q_ids, q_mat, k=ANN_K)
    return out.select_columns(["query_id", "neighbor_id", "rank"])


SQL_ANN_TOPK = f"""
WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id % 10 = 0)
SELECT query_id, neighbor_id, rank FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id
         ) AS BIGINT) AS rank
  FROM q JOIN embeddings e ON e.vec_id <> q.vec_id
) WHERE rank <= {ANN_K}
"""


def q_ann_filtered(sf_dir: str):
    """FILTERED vector search (the vector-DB staple: top-k under a
    metadata predicate). The predicate prunes candidates BEFORE any
    scoring — a batch-local Arrow filter ahead of the same broadcast
    brute-cosine kernel, so only matching rows ever hit the matmul.
    Predicate stand-in: ``vec_id % 3 = 1`` (a category column in real
    corpora; the pruning shape is identical)."""
    from georay.ops import similarity as sim

    q_table = _read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mask = (q_table["vec_id"].to_numpy() % 10) == 0
    q_ids = q_table["vec_id"].to_numpy()[mask]
    q_mat = sim.emb_matrix(q_table["embedding"])[mask]
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def pred(t: pa.Table) -> pa.Table:
        keep = (t["vec_id"].to_numpy(zero_copy_only=False) % 3) == 1
        return t.filter(pa.array(keep))

    cand = emb.map_batches(pred, batch_format="pyarrow", zero_copy_batch=True)
    out = sim.brute_topk(cand, q_ids, q_mat, k=ANN_K)
    return out.select_columns(["query_id", "neighbor_id", "rank"])


SQL_ANN_FILTERED = f"""
WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id % 10 = 0)
SELECT query_id, neighbor_id, rank FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id
         ) AS BIGINT) AS rank
  FROM q JOIN embeddings e ON e.vec_id % 3 = 1 AND e.vec_id <> q.vec_id
) WHERE rank <= {ANN_K}
"""


def q_ann_hard_negatives(sf_dir: str):
    """Hard-NEGATIVE mining for contrastive training: for every query
    vector, the top-k most similar vectors whose ``label`` differs from
    the query's own — the per-query class mask rides inside the same
    broadcast brute-cosine kernel (no second pass, no shuffle; the label
    column is already batch-local)."""
    from georay.ops import similarity as sim

    q_table = _read_table(sf_dir, "embeddings",
                          columns=["vec_id", "embedding", "label"])
    mask = (q_table["vec_id"].to_numpy() % 10) == 0
    q_ids = q_table["vec_id"].to_numpy()[mask]
    q_labels = q_table["label"].to_numpy()[mask]
    q_mat = sim.emb_matrix(q_table["embedding"])[mask]
    emb = _read(sf_dir, "embeddings",
                columns=["vec_id", "embedding", "label"])
    out = sim.brute_topk(emb, q_ids, q_mat, k=ANN_K,
                         query_labels=q_labels)
    return out.select_columns(["query_id", "neighbor_id", "rank"])


SQL_ANN_HARD_NEGATIVES = f"""
WITH q AS (SELECT vec_id, embedding, label FROM embeddings WHERE vec_id % 10 = 0)
SELECT query_id, neighbor_id, rank FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id
         ) AS BIGINT) AS rank
  FROM q JOIN embeddings e ON e.label <> q.label AND e.vec_id <> q.vec_id
) WHERE rank <= {ANN_K}
"""


def q_ann_sq8(sf_dir: str):
    """SQ8 scalar-quantized ANN top-k: float32 dims compress to one byte
    via distributed per-dim (min, max); scoring is an INTEGER code dot
    product, so the full ranking (ids AND scores) is bit-exact vs SQL —
    the 4×-memory brute-force scale path (ops.similarity.sq8_topk)."""
    from georay.ops import similarity as sim

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return sim.sq8_topk(emb, query_mask_mod=10, k=ANN_K)


def q_ann_pq(sf_dir: str):
    """Product-quantization ANN (ADC scoring): vectors compress to 8
    one-byte codeword ids over SQ8 integer codes; per-query lookup tables
    score without touching vectors. Full ranking bit-exact vs SQL — the
    assignment argmin, LUT dots, and tie-breaks are all integer
    (ops.similarity.pq_topk)."""
    from georay.ops import similarity as sim

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return sim.pq_topk(emb, m_subspaces=8, n_codewords=16,
                       query_mask_mod=10, k=ANN_K)


SQL_ANN_PQ = f"""
WITH ex AS (SELECT vec_id, unnest(embedding) AS v,
                   unnest(range(len(embedding))) AS dim
            FROM embeddings),
r AS (SELECT dim, MIN(v) AS mn, MAX(v) AS mx FROM ex GROUP BY dim),
qt AS (SELECT vec_id, dim, CAST(dim // 8 AS BIGINT) AS sub,
         CASE WHEN mx > mn THEN
           LEAST(GREATEST(CAST(FLOOR((CAST(v AS DOUBLE) - mn) * 255.0
                                     / (CAST(mx AS DOUBLE) - mn)) AS BIGINT),
                          0), 255)
         ELSE 0 END AS q
       FROM ex JOIN r USING (dim)),
cb AS (SELECT vec_id AS cw, dim, sub, q FROM qt WHERE vec_id < 16),
dist AS (SELECT d.vec_id, d.sub, c.cw,
                SUM((d.q - c.q) * (d.q - c.q)) AS d2
         FROM qt d JOIN cb c ON c.dim = d.dim
         GROUP BY 1, 2, 3),
asg AS (SELECT vec_id, sub, cw FROM (
          SELECT vec_id, sub, cw,
                 ROW_NUMBER() OVER (PARTITION BY vec_id, sub
                                    ORDER BY d2, cw) AS rn
          FROM dist) WHERE rn = 1),
s AS (SELECT qv.vec_id AS query_id, a.vec_id AS neighbor_id,
             CAST(SUM(qv.q * c.q) AS BIGINT) AS score
      FROM qt qv
      JOIN asg a ON a.sub = qv.sub AND a.vec_id <> qv.vec_id
      JOIN cb c ON c.cw = a.cw AND c.sub = a.sub AND c.dim = qv.dim
      WHERE qv.vec_id % 10 = 0
      GROUP BY 1, 2)
SELECT query_id, neighbor_id, score, rank FROM (
  SELECT query_id, neighbor_id, score,
         CAST(ROW_NUMBER() OVER (PARTITION BY query_id
                                 ORDER BY score DESC, neighbor_id) AS BIGINT)
           AS rank
  FROM s)
WHERE rank <= {ANN_K}
"""


def q_ann_ivf_pq(sf_dir: str):
    """IVF × PQ composition (FAISS IVF,PQ shape) at FULL probe — the
    pruning machinery runs live (bucket assignment, per-bucket LUT
    scoring) but with n_probe == n_centroids the result is mathematically
    identical to ann_pq, so the relational PQ oracle hard-checks it;
    pruned recall is unit-tested (ops.similarity.ivf_pq_topk)."""
    from georay.ops import similarity as sim

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return sim.ivf_pq_topk(emb, m_subspaces=8, n_codewords=16,
                           query_mask_mod=10, k=ANN_K,
                           n_centroids=8, n_probe=8)


SQL_ANN_SQ8 = f"""
WITH ex AS (SELECT vec_id, unnest(embedding) AS v,
                   unnest(range(len(embedding))) AS dim
            FROM embeddings),
r AS (SELECT dim, MIN(v) AS mn, MAX(v) AS mx FROM ex GROUP BY dim),
qt AS (SELECT vec_id, dim,
         CASE WHEN mx > mn THEN
           LEAST(GREATEST(CAST(FLOOR((CAST(v AS DOUBLE) - mn) * 255.0
                                     / (CAST(mx AS DOUBLE) - mn)) AS BIGINT),
                          0), 255)
         ELSE 0 END AS q
       FROM ex JOIN r USING (dim)),
s AS (SELECT a.vec_id AS query_id, b.vec_id AS neighbor_id,
             CAST(SUM(a.q * b.q) AS BIGINT) AS score
      FROM qt a JOIN qt b ON a.dim = b.dim AND b.vec_id <> a.vec_id
      WHERE a.vec_id % 10 = 0
      GROUP BY 1, 2)
SELECT query_id, neighbor_id, score, rank FROM (
  SELECT query_id, neighbor_id, score,
         CAST(ROW_NUMBER() OVER (PARTITION BY query_id
                                 ORDER BY score DESC, neighbor_id) AS BIGINT)
           AS rank
  FROM s)
WHERE rank <= {ANN_K}
"""


# ------------------------------------------------------------- image pipelines
#
# The synthetic image+caption table (input_hint schema) is generated
# distributed + cached by georay.fixtures. Its rows are pure functions of the
# row index, so DuckDB oracles reconstruct the relevant columns from
# ``range(N)`` arithmetic. N is a parameter of ``registry(n_images=...)``;
# the driver contract (sf0.01) uses the default 10_000, while
# tools/check_oracle.py passes ``fixtures.n_images_for(sf_dir)`` so the
# image oracles stay valid at every scale. Pixel content has period 768 in
# the pixel index (georay.fixtures.PIXEL_PERIOD), which makes CONTENT-hash
# dedup exactly SQL-checkable without hashing a single pixel in SQL.


def _sql_img(n: int) -> str:
    return (
        "SELECT i, CASE WHEN i % 64 = 63 THEN i - 1 ELSE i END AS pix "
        f"FROM range(0, {n}) t(i)"
    )


def _sql_img_coords(n: int) -> str:
    return f"""
SELECT i,
  CASE WHEN i % 10 = 0 THEN
    (CASE i % 3 WHEN 0 THEN -74.006 WHEN 1 THEN 2.3522 ELSE 139.6917 END)
  ELSE ((i * 2654435761) % 360000) / 1000.0 - 180.0 END AS lon,
  CASE WHEN i % 10 = 0 THEN
    (CASE i % 3 WHEN 0 THEN 40.7128 WHEN 1 THEN 48.8566 ELSE 35.6895 END)
  ELSE ((i * 40503) % 180000) / 1000.0 - 90.0 END AS lat
FROM range(0, {n}) t(i)
"""


def q_images_dedup(sf_dir: str):
    """Exact dedup on the pixel-content hash over the image table."""
    from georay import fixtures
    from georay.ops import images as img_ops

    ds = fixtures.read_images(sf_dir, columns=["image_id", "phash"])
    return img_ops.dedup_by_phash(ds)


def sql_images_dedup(n: int) -> str:
    return f"""
WITH img AS ({_sql_img(n)})
SELECT CAST(MIN(i) AS BIGINT) AS first_id, COUNT(*) AS n_copies
FROM img GROUP BY pix % 768
"""


def q_images_decode(sf_dir: str):
    """Decode + invariant enforcement (stateless tasks), aggregated per format.
    ``n_ok`` must equal ``n`` — any codec/caption regression breaks the
    oracle match, making the PSNR/caption invariant part of the gate."""
    from georay import fixtures
    from georay.ops import images as img_ops

    ds = fixtures.read_images(
        sf_dir, columns=["image_id", "fmt", "bytes", "caption"]
    )
    checked = img_ops.decode_invariant(ds)

    def fmt_ok(t: pa.Table) -> pa.Table:
        return pa.table({"fmt": t["fmt"], "ok": t["ok"].cast(pa.int64())})

    return runtime.group_agg(
        checked.map_batches(fmt_ok, batch_format="pyarrow"),
        "fmt", {"n": ("count", None), "n_ok": ("sum", "ok")},
    )


def sql_images_decode(n: int) -> str:
    return f"""
WITH img AS ({_sql_img(n)})
SELECT CASE WHEN pix % 16 = 5 THEN 'jpeg'
            WHEN pix % 3 = 0 THEN 'bmp'
            WHEN pix % 3 = 1 THEN 'png' ELSE 'q6' END AS fmt,
       COUNT(*) AS n, COUNT(*) AS n_ok
FROM img GROUP BY 1
"""


def q_images_tiles(sf_dir: str):
    """Tile assignment of image capture points (incl. the 3 hot urban cells
    — the skew fixture) with two-phase aggregation."""
    from georay import fixtures

    ds = fixtures.read_images(sf_dir, columns=["lon", "lat"])

    def to_cell(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        cell = codec.encode(lon, lat, BITS_TILE)
        return pa.table({"cell": cell.astype(np.int64)})

    return tiles.tile_counts(
        ds.map_batches(to_cell, batch_format="pyarrow", zero_copy_batch=True),
        BITS_TILE,
    )


def sql_images_tiles(n: int) -> str:
    return f"""
WITH p AS ({_sql_img_coords(n)})
SELECT {sql_x('lon', 5)} AS tile_x, {sql_y('lat', 5)} AS tile_y, COUNT(*) AS n
FROM p GROUP BY 1, 2
"""


def q_images_features(sf_dir: str):
    """Decode → thumbnail resize → feature extraction, hard-checked per
    image: thumb_hash is deterministic and periodic in the pixel index
    (period 768), so the SQL twin joins ``range(N)`` against a 768-entry
    literal table of expected hashes (computed once, driver-side, through
    the same decode→resize→hash path — a fixture-derived oracle that nails
    sharding/dedup/join placement errors)."""
    from georay import fixtures
    from georay.ops import images as img_ops

    ds = fixtures.read_images(sf_dir, columns=["image_id", "fmt", "bytes"])
    feats = img_ops.image_features(ds)

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 3, 15), pa.int64())
        return pa.table({"img_idx": idx, "thumb_hash": t["thumb_hash"]})

    return feats.map_batches(project, batch_format="pyarrow")


_THUMB_TABLE_CACHE: dict[int, str] = {}


def _sql_thumb_values() -> str:
    """(pmod, thumb_hash) literal rows for one pixel period, via the same
    numpy decode→bilinear-resize→hash path ImageTransform runs."""
    cached = _THUMB_TABLE_CACHE.get(0)
    if cached is None:
        from georay import images
        from georay.fixtures import PIXEL_PERIOD
        from georay.ops.images import ImageTransform

        rows = []
        tr = ImageTransform()
        for p in range(PIXEL_PERIOD):
            w, h = images.image_dims(p)
            fmt = images.image_fmt(p)
            blob = images.encode_image(images.synth_pixels(p, w, h), fmt)
            t = pa.table(
                {
                    "image_id": pa.array([f"img{p:012d}"]),
                    "fmt": pa.array([fmt]),
                    "bytes": pa.array([blob], pa.binary()),
                }
            )
            th = tr(t)["thumb_hash"][0].as_py()
            rows.append(f"({p}, {th})")
        cached = ",\n  ".join(rows)
        _THUMB_TABLE_CACHE[0] = cached
    return cached


def sql_images_features(n: int) -> str:
    return f"""
WITH img AS ({_sql_img(n)}),
th(pmod, thumb_hash) AS (VALUES
  {_sql_thumb_values()}
)
SELECT CAST(img.i AS BIGINT) AS img_idx,
       CAST(th.thumb_hash AS BIGINT) AS thumb_hash
FROM img JOIN th ON th.pmod = img.pix % 768
"""


def q_images_sharpness(sf_dir: str):
    """Decode → integer Laplacian-energy sharpness per image (the
    blur-detection filter of image curation; ops/images.sharpness — all
    int64, exact across codecs INCLUDING the lossy JPEG rows because the
    fixture's encode→decode round trip is deterministic). Fixture-derived
    oracle: sharpness is periodic in the pixel index (period 768), so the
    SQL twin joins range(N) against a 768-entry literal computed once
    driver-side through the same decode→Laplacian path — same discipline
    as `images_features`."""
    import pyarrow.compute as pc

    from georay import fixtures
    from georay.ops import images as img_ops

    ds = fixtures.read_images(sf_dir, columns=["image_id", "fmt", "bytes"])
    sharp = img_ops.sharpness(ds)

    def project(t: pa.Table) -> pa.Table:
        idx = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 3, 15), pa.int64())
        return pa.table({"img_idx": idx, "sharp": t["sharp"]})

    return sharp.map_batches(project, batch_format="pyarrow")


_SHARP_TABLE_CACHE: dict[int, str] = {}


def _sql_sharp_values() -> str:
    """(pmod, sharp) literal rows for one pixel period, via the same
    decode→Laplacian-energy path ops/images.sharpness runs."""
    cached = _SHARP_TABLE_CACHE.get(0)
    if cached is None:
        from georay import images
        from georay.fixtures import PIXEL_PERIOD

        rows = []
        for p in range(PIXEL_PERIOD):
            w, h = images.image_dims(p)
            fmt = images.image_fmt(p)
            blob = images.encode_image(images.synth_pixels(p, w, h), fmt)
            px = images.decode_image(blob, fmt).astype(np.int64)
            lum = px[:, :, 0] * 299 + px[:, :, 1] * 587 + px[:, :, 2] * 114
            lap = (4 * lum[1:-1, 1:-1] - lum[:-2, 1:-1] - lum[2:, 1:-1]
                   - lum[1:-1, :-2] - lum[1:-1, 2:])
            rows.append(f"({p}, {int((lap * lap).sum())})")
        cached = ",\n  ".join(rows)
        _SHARP_TABLE_CACHE[0] = cached
    return cached


def sql_images_sharpness(n: int) -> str:
    return f"""
WITH img AS ({_sql_img(n)}),
sh(pmod, sharp) AS (VALUES
  {_sql_sharp_values()}
)
SELECT CAST(img.i AS BIGINT) AS img_idx, CAST(sh.sharp AS BIGINT) AS sharp
FROM img JOIN sh ON sh.pmod = img.pix % 768
"""


def q_images_ahash_neardup(sf_dir: str):
    """Visual near-dup pairs by perceptual aHash at Hamming ≤ 2 through the
    generic block-LSH pigeonhole path (exact for max_hamming < n_blocks):
    decode → 8×8 block-mean aHash → 8-block LSH buckets → exact Hamming
    verify → (id_a, id_b, hamming). Unlike images_dedup (avalanching
    content hash, exact copies only), this finds visually-close non-copies
    too — the fixture's gradient patterns put ~200 of the 768 pixel classes
    within 2 bits of another class."""
    import pyarrow.compute as pc

    from georay import fixtures
    from georay.ops import images as img_ops
    from georay.ops import minhash as mh

    ds = fixtures.read_images(sf_dir, columns=["image_id", "fmt", "bytes"])
    hashes = img_ops.perceptual_hashes(ds)

    def project(t: pa.Table) -> pa.Table:
        idx = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 3, 15), pa.int64())
        return pa.table({"img_idx": idx, "ahash": t["ahash"]})

    sigs = hashes.map_batches(project, batch_format="pyarrow")
    return mh.hamming_near_dup_pairs(
        sigs, id_col="img_idx", hash_col="ahash", max_hamming=2, n_blocks=8,
        log_prefix="georay.ahash",
    ).select_columns(["id_a", "id_b", "hamming"])


def q_images_geo_neardup(sf_dir: str):
    """GEO-BLOCKED visual near-dup (the curation blocking pattern: only
    images in the SAME tile can pair — dedup-within-partition, like
    dedup-within-language for text): aHash block-LSH with the tile id
    packed above the block bits of the bucket key
    (ops.minhash.hamming_near_dup_pairs ``group_col``), so pigeonhole
    exactness holds per tile and cross-tile collisions are structurally
    impossible. Distinct from images_ahash_neardup (global pairs)."""
    import pyarrow.compute as pc

    from georay import fixtures, images
    from georay.ops import minhash as mh

    ds = fixtures.read_images(
        sf_dir, columns=["image_id", "fmt", "bytes", "lon", "lat"])

    def hash_and_tile(t: pa.Table) -> pa.Table:
        idx = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 3, 15), pa.int64())
        fmts = t["fmt"].to_pylist()
        blobs = t["bytes"].to_pylist()
        ah = np.empty(len(fmts), dtype=np.int64)
        for k in range(len(fmts)):  # decode is inherently per-image
            px = images.decode_image(blobs[k], fmts[k])
            ah[k] = np.uint64(images.ahash64(px)).astype(np.int64)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        tile = codec.encode(lon, lat, BITS_TILE).astype(np.int64)
        return pa.table({"img_idx": idx, "ahash": pa.array(ah), "tile": tile})

    sigs = ds.map_batches(hash_and_tile, batch_format="pyarrow",
                          batch_size=512)
    return mh.hamming_near_dup_pairs(
        sigs, id_col="img_idx", hash_col="ahash", max_hamming=2, n_blocks=8,
        group_col="tile", log_prefix="georay.geo_ahash",
    ).select_columns(["id_a", "id_b", "hamming"])


def sql_images_geo_neardup(n: int) -> str:
    return f"""
WITH img AS ({_sql_img(n)}),
co AS ({_sql_img_coords(n)}),
ah(pmod, ahash) AS (VALUES
  {_sql_ahash_values()}
),
loc AS (SELECT img.i, img.pix, {sql_x('co.lon', 5)} AS tx,
               {sql_y('co.lat', 5)} AS ty
        FROM img JOIN co ON co.i = img.i),
cp AS (
  SELECT a.pmod AS pa, b.pmod AS pb,
         CAST(bit_count(xor(a.ahash, b.ahash)) AS BIGINT) AS hm
  FROM ah a, ah b
  WHERE bit_count(xor(a.ahash, b.ahash)) <= 2
)
SELECT CAST(ia.i AS BIGINT) AS id_a, CAST(ib.i AS BIGINT) AS id_b,
       cp.hm AS hamming
FROM cp
JOIN loc ia ON ia.pix % 768 = cp.pa
JOIN loc ib ON ib.pix % 768 = cp.pb
           AND ia.tx = ib.tx AND ia.ty = ib.ty
WHERE ia.i < ib.i
"""


_AHASH_TABLE_CACHE: dict[int, str] = {}


def _sql_ahash_values() -> str:
    """(pmod, ahash) literal rows for one pixel period through the same
    encode→decode→ahash path the stage runs (decode matters: q6 is lossy,
    so the stored-byte hash differs from the raw-pixel hash)."""
    cached = _AHASH_TABLE_CACHE.get(0)
    if cached is None:
        from georay import images
        from georay.fixtures import PIXEL_PERIOD

        rows = []
        for p in range(PIXEL_PERIOD):
            w, h = images.image_dims(p)
            fmt = images.image_fmt(p)
            blob = images.encode_image(images.synth_pixels(p, w, h), fmt)
            px = images.decode_image(blob, fmt)
            ah = int(np.uint64(images.ahash64(px)).astype(np.int64))
            rows.append(f"({p}, {ah})")
        cached = ",\n  ".join(rows)
        _AHASH_TABLE_CACHE[0] = cached
    return cached


def sql_images_ahash_neardup(n: int) -> str:
    """SQL twin: class-level Hamming pairs over the 768-entry aHash literal
    table (bit_count(xor(...)) — DuckDB popcounts two's-complement BIGINT
    exactly like the uint64 view), expanded to image pairs via the pixel
    period. The class join is deliberately UNordered: image pair i<j joins
    through the (class(i), class(j)) direction only, so each pair appears
    exactly once."""
    return f"""
WITH img AS ({_sql_img(n)}),
ah(pmod, ahash) AS (VALUES
  {_sql_ahash_values()}
),
cp AS (
  SELECT a.pmod AS pa, b.pmod AS pb,
         CAST(bit_count(xor(a.ahash, b.ahash)) AS BIGINT) AS hm
  FROM ah a, ah b
  WHERE bit_count(xor(a.ahash, b.ahash)) <= 2
)
SELECT CAST(ia.i AS BIGINT) AS id_a, CAST(ib.i AS BIGINT) AS id_b,
       cp.hm AS hamming
FROM cp
JOIN img ia ON ia.pix % 768 = cp.pa
JOIN img ib ON ib.pix % 768 = cp.pb
WHERE ia.i < ib.i
"""


def q_images_pip(sf_dir: str):
    """Image points vs the fixture tile-polygon set (non-convex hexagons,
    antimeridian split pair, pole tile) on the PIP stage. Hard-checked: the
    fixture rings are all axis-aligned boxes or notched boxes, so the SQL
    twin reconstructs each ring's ray-cast interior as half-open rectangle
    predicates with the ring coordinates embedded as exact float literals."""
    from georay import fixtures
    from georay.ops import pip as pip_ops

    ids, _zooms, rings = fixtures.make_tiles()
    ds = fixtures.read_images(sf_dir, columns=["image_id", "lon", "lat"])
    pairs = pip_ops.pip_assign(
        ds, ids, rings, bits=10, keep_cols=["image_id"], poly_id_col="tile_id"
    )
    return tiles.count_by(pairs, "tile_id", out_col="n_points")


def _sql_tile_rects() -> str:
    """VALUES rows for the fixture tile polygons: every ring is a box (5-pt
    closed ring) or a notched box ("hexagon", 6 vertices); the strict
    ray-cast interior of both is the union of two half-open rectangles
    [x0,x1) × [y0,ym) ∪ [xm,x1) × [ym,y1)  (a plain box has xm=x0, ym=y1).
    Ring coordinates are embedded as repr() float literals — bit-exact
    round-trip into DuckDB doubles."""
    from georay import fixtures

    ids, _zooms, rings = fixtures.make_tiles()
    rows = []
    for tid, (rx, ry) in zip(ids, rings):
        if rx.size == 6:  # notched box: (x0,y0)(x1,y0)(x1,y1)(xm,y1)(xm,ym)(x0,ym)
            x0, x1, xm = rx[0], rx[1], rx[3]
            y0, y1, ym = ry[0], ry[2], ry[4]
        else:  # closed box ring
            x0, x1 = rx[0], rx[1]
            y0, y1 = ry[0], ry[2]
            xm, ym = x0, y1
        rows.append(
            f"('{tid}', {x0!r}, {x1!r}, {y0!r}, {y1!r}, {xm!r}, {ym!r})"
        )
    return ",\n  ".join(rows)


_SQL_TILE_PRED = """
  ON (p.lat >= t.y0 AND p.lat < t.ym AND p.lon >= t.x0 AND p.lon < t.x1)
  OR (p.lat >= t.ym AND p.lat < t.y1 AND p.lon >= t.xm AND p.lon < t.x1)
"""


def sql_images_pip(n: int) -> str:
    """SQL twin of q_images_pip — see :func:`_sql_tile_rects` for the
    half-open-rectangle reconstruction of the ray-cast interiors."""
    return f"""
WITH p AS ({_sql_img_coords(n)}),
t(tile_id, x0, x1, y0, y1, xm, ym) AS (VALUES
  {_sql_tile_rects()}
)
SELECT tile_id, COUNT(*) AS n_points
FROM p JOIN t
{_SQL_TILE_PRED}
GROUP BY tile_id
"""


def q_images_pip_anti(sf_dir: str):
    """Spatial ANTI join: images contained in NO fixture tile polygon —
    same broadcast polygon index as q_images_pip, batch-local complement,
    zero shuffle (ops.pip.pip_assign(anti=True)). Output is the parsed
    integer image index so the twin needs no string formatting."""
    import pyarrow.compute as pc

    from georay import fixtures
    from georay.ops import pip as pip_ops

    ids, _zooms, rings = fixtures.make_tiles()
    ds = fixtures.read_images(sf_dir, columns=["image_id", "lon", "lat"])
    out = pip_ops.pip_assign(
        ds, ids, rings, bits=10, keep_cols=["image_id"], anti=True
    )

    def fin(t: pa.Table) -> pa.Table:
        idx = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 3, 15), pa.int64())
        return pa.table({"i": idx})

    return out.map_batches(fin, batch_format="pyarrow")


def sql_images_pip_anti(n: int) -> str:
    return f"""
WITH p AS ({_sql_img_coords(n)}),
t(tile_id, x0, x1, y0, y1, xm, ym) AS (VALUES
  {_sql_tile_rects()}
)
SELECT i FROM p
WHERE NOT EXISTS (
  SELECT 1 FROM t
  WHERE (p.lat >= t.y0 AND p.lat < t.ym AND p.lon >= t.x0 AND p.lon < t.x1)
     OR (p.lat >= t.ym AND p.lat < t.y1 AND p.lon >= t.xm AND p.lon < t.x1))
"""


def q_zonal_stats(sf_dir: str):
    """Zonal statistics: per-polygon (count, sum, min, max) of the image
    width — PIP zone assignment (broadcast polygon index) feeding the
    two-phase integer zonal aggregate (ops.tiles.zonal_stats)."""
    from georay import fixtures
    from georay.ops import pip as pip_ops

    ids, _zooms, rings = fixtures.make_tiles()
    ds = fixtures.read_images(sf_dir, columns=["w", "lon", "lat"])
    pairs = pip_ops.pip_assign(
        ds, ids, rings, bits=10, keep_cols=["w"], poly_id_col="tile_id"
    )
    return tiles.zonal_stats(pairs, "tile_id", "w")


def sql_zonal_stats(n: int) -> str:
    """w replays the fixture dims closed form: w = 32 + (pix % 4)·16 with
    the duplicate-injection pixel index (images.image_dims, FIXTURES.md F1)."""
    return f"""
WITH c AS ({_sql_img_coords(n)}),
img AS ({_sql_img(n)}),
p AS (SELECT c.i, lon, lat, 32 + (pix % 4) * 16 AS w
      FROM c JOIN img ON c.i = img.i),
t(tile_id, x0, x1, y0, y1, xm, ym) AS (VALUES
  {_sql_tile_rects()}
)
SELECT tile_id, COUNT(*) AS n, CAST(SUM(w) AS BIGINT) AS sum_v,
       CAST(MIN(w) AS BIGINT) AS min_v, CAST(MAX(w) AS BIGINT) AS max_v
FROM p JOIN t
{_SQL_TILE_PRED}
GROUP BY tile_id
"""


# --------------------------------------------------- audio / video multimodal


def q_audio_features(sf_dir: str):
    """Raw-PCM audio decode + feature extraction over the synthetic rawa
    table, hard-checked: every emitted feature has a closed form in the row
    index (square-wave synthesis — see fixtures.make_audio_rows), replayed
    by the SQL twin."""
    from georay import fixtures
    from georay.ops import images as img_ops

    ds = fixtures.read_audio(sf_dir)
    feats = img_ops.audio_features(ds)

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.cast(pc.utf8_slice_codeunits(t["audio_id"], 3, 12), pa.int64())
        peak_i = pc.cast(
            pc.round(pc.multiply(t["peak"], pa.scalar(32768.0))), pa.int64()
        )
        return pa.table(
            {
                "aud_idx": idx,
                "duration_ms": t["duration_ms"],
                "n_frames": t["n_frames"],
                "zero_crossings": t["zero_crossings"],
                "peak_i": peak_i,
            }
        )

    return feats.map_batches(project, batch_format="pyarrow")


def sql_audio_features(n: int) -> str:
    return f"""
WITH a AS (SELECT i, 800 + (i % 5) * 400 AS ns, 4 + (i % 7) AS hp,
                  1000 * (1 + i % 3) AS amp
           FROM range(0, {n}) t(i))
SELECT i AS aud_idx,
       CAST(ns // 8 AS BIGINT) AS duration_ms,
       CAST((ns + 1023) // 1024 AS BIGINT) AS n_frames,
       CAST((ns - 1) // hp AS BIGINT) AS zero_crossings,
       CAST(amp AS BIGINT) AS peak_i
FROM a
"""


def q_video_frames(sf_dir: str):
    """Video frame sampling (1 row → ⌈nf/5⌉ frame rows) over the synthetic
    rawv table, hard-checked: sampled frame indices and per-frame byte sums
    have closed forms in the row index (fixtures.make_video_rows)."""
    from georay import fixtures
    from georay.ops import images as img_ops

    ds = fixtures.read_video(sf_dir)
    frames = img_ops.sample_video_frames(ds, every_n=5)

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.cast(pc.utf8_slice_codeunits(t["video_id"], 3, 12), pa.int64())
        blobs = t["frame_rgb"].to_pylist()
        sums = np.fromiter(
            (int(np.frombuffer(b, dtype=np.uint8).sum()) for b in blobs),
            dtype=np.int64, count=len(blobs),
        )
        return pa.table(
            {
                "vid_idx": idx,
                "frame_idx": t["frame_idx"],
                "frame_sum": pa.array(sums),
            }
        )

    return frames.map_batches(project, batch_format="pyarrow")


def sql_video_frames(n: int) -> str:
    """Per-frame byte sum of ``(i·31 + f·7 + k) % 256`` for k < fb: an
    arithmetic run starting at st with optional wrap at 256."""
    return f"""
WITH v AS (SELECT i, 4 + (i % 3) * 2 AS w, 4 + (i % 2) * 2 AS h,
                  10 + (i % 11) * 3 AS nf
           FROM range(0, {n}) t(i)),
f AS (SELECT i, w * h * 3 AS fb, unnest(range(0, nf, 5)) AS fidx FROM v),
s AS (SELECT i, fidx, fb, (i * 31 + fidx * 7) % 256 AS st FROM f)
SELECT i AS vid_idx, CAST(fidx AS BIGINT) AS frame_idx,
       CAST(CASE WHEN st + fb <= 256
            THEN fb * st + fb * (fb - 1) // 2
            ELSE (st + 255) * (256 - st) // 2
               + (fb - (256 - st) - 1) * (fb - (256 - st)) // 2 END
            AS BIGINT) AS frame_sum
FROM s
"""


def q_video_scene_cuts(sf_dir: str):
    """Scene-cut detection: per video, count frame-to-frame signature
    jumps above 7·frame_bytes (ops.images.scene_cuts — zero-shuffle, the
    frames never explode out of the blob row)."""
    from georay import fixtures
    from georay.ops import images as img_ops

    ds = fixtures.read_video(sf_dir)
    cuts = img_ops.scene_cuts(ds, thresh_per_byte=7)

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.cast(pc.utf8_slice_codeunits(t["video_id"], 3, 12), pa.int64())
        return pa.table({"vid_idx": idx, "n_frames": t["n_frames"],
                         "n_cuts": t["n_cuts"]})

    return cuts.map_batches(project, batch_format="pyarrow")


def sql_video_scene_cuts(n: int) -> str:
    """LAG twin over the closed-form frame byte sums (sql_video_frames'
    arithmetic-run formula at frame step 1)."""
    return f"""
WITH v AS (SELECT i, 4 + (i % 3) * 2 AS w, 4 + (i % 2) * 2 AS h,
                  10 + (i % 11) * 3 AS nf
           FROM range(0, {n}) t(i)),
f AS (SELECT i, w * h * 3 AS fb, nf, unnest(range(0, nf)) AS fidx FROM v),
s AS (SELECT i, fidx, fb, nf, (i * 31 + fidx * 7) % 256 AS st FROM f),
fs AS (SELECT i, fidx, fb, nf,
       CAST(CASE WHEN st + fb <= 256
            THEN fb * st + fb * (fb - 1) // 2
            ELSE (st + 255) * (256 - st) // 2
               + (fb - (256 - st) - 1) * (fb - (256 - st)) // 2 END
            AS BIGINT) AS fsum
       FROM s),
d AS (SELECT i, nf, fb,
             fsum - LAG(fsum) OVER (PARTITION BY i ORDER BY fidx) AS dd
      FROM fs)
SELECT i AS vid_idx, CAST(MAX(nf) AS BIGINT) AS n_frames,
       CAST(COUNT(*) FILTER (ABS(dd) > 7 * fb) AS BIGINT) AS n_cuts
FROM d GROUP BY i
"""


# ------------------------------------------------------ near-dup / text suite


def q_minhash_neardup(sf_dir: str):
    """MinHash(64)+LSH(16 bands × 4) candidates → exact shingle-Jaccard
    verify at τ=0.7. The SQL twin computes exact 5-gram Jaccard relationally
    (unnest → gram join). With the corpus's pair-similarity gap (all true
    pairs ≥0.92) the banded LSH finds every pair deterministically."""
    from georay.ops import minhash as mh

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    docs_table = _read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return mh.near_dup_pairs(
        docs, docs_table, n_hashes=64, n_bands=16, shingle_k=5, threshold=0.7
    )


SQL_MINHASH_NEARDUP = """
WITH grams AS (
  SELECT DISTINCT doc_id, substr(text, j, 5) AS gram
  FROM (SELECT doc_id, text, unnest(range(1, length(text) - 3)) AS j FROM documents)
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS c
  FROM grams a JOIN grams b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b,
       CAST(c AS DOUBLE) / (sa.n + sb.n - c) AS jaccard
FROM inter JOIN sizes sa ON sa.doc_id = id_a JOIN sizes sb ON sb.doc_id = id_b
WHERE CAST(c AS DOUBLE) / (sa.n + sb.n - c) >= 0.7
"""


def q_minhash_neardup_shuffle(sf_dir: str):
    """Same MinHash+LSH pipeline via the big-big ``verify="shuffle"`` path:
    candidate pairs hash-join back to per-doc shingle sets (no corpus
    broadcast) — must match the identical relational Jaccard oracle."""
    from georay.ops import minhash as mh

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return mh.near_dup_pairs(
        docs, n_hashes=64, n_bands=16, shingle_k=5, threshold=0.7,
        verify="shuffle", num_partitions=4,  # tiny corpus; 100 TB uses more
    )


def q_neardup_clusters(sf_dir: str):
    """Near-dup CLUSTERING: MinHash pairs → distributed connected
    components (min-label propagation: materialized label table + per-round
    edge joins) → (doc_id, cluster_id, is_representative). The SQL twin
    computes the transitive closure with a recursive CTE over the exact
    relational Jaccard pairs."""
    from georay.ops import cluster as cluster_ops
    from georay.ops import minhash as mh

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    docs_table = _read_table(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = mh.near_dup_pairs(
        docs, docs_table, n_hashes=64, n_bands=16, shingle_k=5, threshold=0.7
    )
    out = cluster_ops.dedup_clusters(docs, pairs, id_col="doc_id",
                                     num_partitions=4)

    def widen(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "cluster_id": t["cluster_id"],
                "is_rep": t["is_representative"].cast(pa.int64()),
            }
        )

    return out.map_batches(widen, batch_format="pyarrow")


# transitive closure of the exact-Jaccard near-dup graph; reuses the pair
# CTEs of SQL_MINHASH_NEARDUP verbatim
SQL_NEARDUP_CLUSTERS = """
WITH RECURSIVE grams AS (
  SELECT DISTINCT doc_id, substr(text, j, 5) AS gram
  FROM (SELECT doc_id, text, unnest(range(1, length(text) - 3)) AS j FROM documents)
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS c
  FROM grams a JOIN grams b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
jac AS (
  SELECT id_a, id_b
  FROM inter JOIN sizes sa ON sa.doc_id = id_a JOIN sizes sb ON sb.doc_id = id_b
  WHERE CAST(c AS DOUBLE) / (sa.n + sb.n - c) >= 0.7
),
e AS (SELECT id_a AS a, id_b AS b FROM jac
      UNION SELECT id_b, id_a FROM jac),
r(a, b) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT r.a, e.b FROM r JOIN e ON e.a = r.b
)
SELECT a AS doc_id, CAST(MIN(b) AS BIGINT) AS cluster_id,
       CAST(CASE WHEN MIN(b) = a THEN 1 ELSE 0 END AS BIGINT) AS is_rep
FROM r GROUP BY a
"""


def q_leakage_split(sf_dir: str):
    """Leakage-free train/val/test split (80/10/10): docs are split by
    hashing their near-dup CLUSTER id, not their own id, so every member
    of a duplicate cluster lands in the same split — the curation
    correctness rule that stops eval contamination. Composition: MinHash
    pairs → distributed connected components (same plan as
    neardup_clusters) → splitmix64(cluster_id) % 10 → split ∈ {0,1,2}.
    The SQL twin replays the recursive-CTE closure + the shared bit-exact
    splitmix64."""
    from georay.ops import cluster as cluster_ops
    from georay.ops import minhash as mh
    from georay.ops.sketch import splitmix64

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    docs_table = _read_table(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = mh.near_dup_pairs(
        docs, docs_table, n_hashes=64, n_bands=16, shingle_k=5, threshold=0.7
    )
    out = cluster_ops.dedup_clusters(docs, pairs, id_col="doc_id",
                                     num_partitions=4)

    def split(t: pa.Table) -> pa.Table:
        cid = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(cid.view(np.uint64)) % np.uint64(10)
        sp = np.where(h < 8, np.int64(0),
                      np.where(h == 8, np.int64(1), np.int64(2)))
        return pa.table({"doc_id": t["doc_id"],
                         "cluster_id": t["cluster_id"], "split": sp})

    return out.map_batches(split, batch_format="pyarrow")


SQL_LEAKAGE_SPLIT = SQL_NEARDUP_CLUSTERS.replace(
    """)
SELECT a AS doc_id, CAST(MIN(b) AS BIGINT) AS cluster_id,
       CAST(CASE WHEN MIN(b) = a THEN 1 ELSE 0 END AS BIGINT) AS is_rep
FROM r GROUP BY a
""",
    """),
cl AS (SELECT a AS doc_id, CAST(MIN(b) AS BIGINT) AS cluster_id
       FROM r GROUP BY a)
SELECT doc_id, cluster_id,
       CAST(CASE WHEN hu % 10 < 8 THEN 0
                 WHEN hu % 10 = 8 THEN 1 ELSE 2 END AS BIGINT) AS split
FROM {sub}
""".format(sub=sketch_sql_subquery("cl", "cluster_id", out="hu")))


def q_embed_neardup(sf_dir: str):
    """Exact embedding near-dup pairs at cosine ≥ 0.45 (brute broadcast
    path; the LSH-bucketed variant is the rows-only scale path below)."""
    from georay.ops import similarity as sim

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    table = _read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    pairs = sim.cosine_pairs_brute(emb, table, threshold=0.45)
    return pairs.select_columns(["id_a", "id_b"])


SQL_EMBED_NEARDUP = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
"""


def q_embed_neardup_lsh(sf_dir: str):
    """Embedding near-dup via the random-hyperplane LSH SCALE path:
    8 independent 4-plane tables (OR amplification), in-bucket pairwise
    cosine ≥ τ, pairs deduped across tables. Hard-checked: the seeded plane
    matrices are embedded as float literals in the SQL twin, which replays
    bucket assignment with ``list_inner_product`` and the any-table
    collision + cosine filter — the approximation (pairs colliding in no
    table are missed) is identical on both sides, so the result is
    deterministic and hash-comparable."""
    from georay.ops import similarity as sim

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    pairs = sim.cosine_near_dup_pairs(
        emb, threshold=0.45, n_planes=4, n_tables=8
    )
    return pairs.select_columns(["id_a", "id_b"])


def sql_embed_neardup_lsh(dim: int = 64, n_planes: int = 4,
                          n_tables: int = 8, seed: int = 42,
                          threshold: float = 0.45) -> str:
    from georay.ops.similarity import lsh_planes

    planes = lsh_planes(dim, n_planes, n_tables, seed)
    cols = []
    for t, pl in enumerate(planes):
        terms = []
        for j in range(n_planes):
            vec = ", ".join(repr(float(v)) for v in pl[:, j])
            terms.append(
                f"(CASE WHEN list_inner_product(CAST(embedding AS DOUBLE[]), "
                f"[{vec}]) > 0 THEN {1 << j} ELSE 0 END)"
            )
        cols.append("(" + " + ".join(terms) + f") AS b{t}")
    col_sql = ",\n  ".join(cols)
    cond = " OR ".join(f"a.b{t} = c.b{t}" for t in range(n_tables))
    return f"""
WITH b AS (SELECT vec_id, embedding,
  {col_sql}
  FROM embeddings)
SELECT a.vec_id AS id_a, c.vec_id AS id_b
FROM b a JOIN b c ON a.vec_id < c.vec_id AND ({cond})
WHERE list_cosine_similarity(a.embedding, c.embedding) >= {threshold}
"""


def q_fingerprint_dedup(sf_dir: str):
    """Exact dedup via 64-bit rolling-hash fingerprints of the 40-char
    prefix — hash-based dedup whose groups must coincide with grouping by
    the prefix text itself (collision-free check)."""
    from georay.ops import text as text_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return text_ops.dedup_by_fingerprint(docs, prefix=40)


SQL_FINGERPRINT_DEDUP = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id_first, COUNT(*) AS n_copies
FROM documents GROUP BY substr(text, 1, 40)
"""


def q_knn_shuffle(sf_dir: str):
    """Big×big kNN path: ring-cell flat-map → hash shuffle join → per-query
    top-k reduce. Same semantics (and SQL twin) as the broadcast kNN."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    supp = _read(sf_dir, "supplier", columns=["s_suppkey"])
    supp = spatial.points_with_cells(supp, "s_suppkey", BITS_JOIN, xy=False)
    out = knn_ops.knn_shuffle(
        cust,
        supp,
        bits=BITS_JOIN,
        k=KNN_K,
        ring=1,
        query_id="c_custkey",
        ref_id="s_suppkey",
        expand_side="refs",  # suppliers are 15x fewer: explode the small side
    )
    return out.select_columns(["c_custkey", "s_suppkey", "rank"])


def q_langid(sf_dir: str):
    """Heuristic language-ID confusion counts vs the stored labels.
    LangId uses integer-exact thresholds (ops/text.py), so the whole
    confusion matrix has a relational SQL twin."""
    from georay.ops import text as text_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    pred = text_ops.langid(docs)
    truth = _read_table(sf_dir, "documents", columns=["doc_id", "lang"])
    joined = join_ops.broadcast_cell_join(
        pred, truth, on="doc_id", right_cols=["lang"]
    )

    def pair(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {"pair": pc.binary_join_element_wise(
                t["lang"], t["lang_pred"], "->"
            )}
        )

    return tiles.count_by(
        joined.map_batches(pair, batch_format="pyarrow"),
        "pair",
    )


def _sql_stoplist(lang: str) -> str:
    from georay.ops.text import _STOPWORDS

    return ", ".join(f"'{w}'" for w in sorted(_STOPWORDS[lang]))


def _sql_langid() -> str:
    """SQL twin of ops.text.LangId: per-doc stopword-occurrence counts per
    profile, first-max-wins CASE chain, integer thresholds (50*c > n_tokens;
    zh iff 20*cjk > max(len,1))."""
    cases = []
    langs = ["en", "de", "fr", "es"]
    for i, lang in enumerate(langs):
        rest = [f"c_{lang} >= c_{o}" for o in langs[i + 1 :]]
        cond = " AND ".join(rest) if rest else "TRUE"
        cases.append(f"WHEN {cond} THEN '{lang}'")
    case_chain = "\n            ".join(cases)
    counts = ",\n         ".join(
        f"count(*) FILTER (WHERE w IN ({_sql_stoplist(lang)})) AS c_{lang}"
        for lang in langs
    )
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[\\p{{L}}\\p{{N}}_'']+')) AS w
  FROM documents
),
a AS (SELECT doc_id, count(*) AS nw,
         {counts}
      FROM toks GROUP BY doc_id),
d AS (SELECT doc_id, lang,
         length(regexp_replace(text, '[^一-鿿]', '', 'g')) AS cjk,
         GREATEST(length(text), 1) AS ln
      FROM documents),
p AS (SELECT d.lang,
        CASE WHEN 20 * cjk > ln THEN 'zh'
             WHEN a.doc_id IS NULL OR nw = 0
               OR 50 * GREATEST(c_en, c_de, c_fr, c_es) <= nw THEN 'unk'
             {case_chain}
        END AS pred
      FROM d LEFT JOIN a USING (doc_id))
SELECT lang || '->' || pred AS pair, COUNT(*) AS n FROM p GROUP BY 1
"""


SQL_LANGID = _sql_langid()


def q_quality(sf_dir: str):
    """Quality-score features per doc: the harness output is the INTEGER
    base features (exact SQL twin); the float ratios/score stay on the
    library op and are unit-tested."""
    from georay.ops import text as text_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return text_ops.quality(docs).select_columns(
        ["doc_id", "n_chars_q", "n_tokens_q", "n_uniq_tok", "n_stop_tok",
         "n_alpha"]
    )


SQL_QUALITY = f"""
WITH t AS (SELECT doc_id, text,
                  regexp_extract_all(text, '[\\p{{L}}\\p{{N}}_'']+') AS toks
           FROM documents)
SELECT doc_id,
  CAST(length(text) AS BIGINT) AS n_chars_q,
  CAST(len(toks) AS BIGINT) AS n_tokens_q,
  CAST(len(list_distinct(toks)) AS BIGINT) AS n_uniq_tok,
  CAST(len(list_filter(toks, x -> lower(x) IN ({_sql_stoplist('en')})))
       AS BIGINT) AS n_stop_tok,
  CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS BIGINT) AS n_alpha
FROM t
"""


# ------------------------------------------------------- corpus curation

CURATION_MIN_CHARS = 100
CURATION_J = 0.7


def q_corpus_curation(sf_dir: str):
    """End-to-end LLM corpus curation — the composed pipeline an actual
    training-data run chains: language gate → quality gate → exact dedup
    (keep-lowest-id per fingerprint) → MinHash near-dup clustering (drop
    non-representatives). Output: ``(doc_id, stage)`` for EVERY doc, stage
    = first failing gate (1 lang, 2 quality, 3 exact-dup, 4 near-dup) or 0
    kept.

    Scale shape: ONE map-only pass over the text computes lang + quality
    + fingerprint (text never shuffles with the flags); exact dedup is a
    group_agg min on (fp, id) rows; survivors rejoin their text through a
    hash join (the 100 TB path — no id-set broadcast) and run the standard
    no-broadcast near-dup pipeline (shuffle verify); stages assemble with
    two more hash joins on bounded flag tables."""
    import pandas as pd

    from georay.ops import cluster as cluster_ops
    from georay.ops import minhash as mh
    from georay.ops import text as text_ops
    from georay.runtime import per_process

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tag(df: pd.DataFrame) -> pa.Table:
        lang = per_process("text.LangId", text_ops.LangId)(df)
        feat = per_process("text.QualityScore", text_ops.QualityScore)(df)
        # full-text fingerprint = true exact dedup (q_fingerprint_dedup's
        # collision-free contract); prefix dups fall through to the
        # near-dup stage, which is what they are
        fp = text_ops.fingerprint64(
            df["text"].to_numpy(dtype=object)
        ).view(np.int64)
        lang_ok = (lang["lang_pred"].to_numpy() == "en").astype(np.int64)
        qual_ok = (
            (feat["n_chars_q"].to_numpy() >= CURATION_MIN_CHARS)
            & (5 * feat["n_uniq_tok"].to_numpy()
               >= 2 * feat["n_tokens_q"].to_numpy())
        ).astype(np.int64)
        # arrow out, built from numpy (NOT from_pandas: its schema metadata
        # is unhashable and defeats Ray's block-schema dedup — CLAUDE.md)
        return pa.table(
            {"doc_id": pa.array(df["doc_id"].to_numpy()),
             "fp": pa.array(fp), "lang_ok": pa.array(lang_ok),
             "qual_ok": pa.array(qual_ok)}
        )

    tagged = docs.map_batches(tag, batch_format="pandas").materialize()

    def surv12(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(pc.equal(t["lang_ok"], 1), pc.equal(t["qual_ok"], 1))
        k = t.filter(keep)
        return pa.table({"fp": k["fp"], "doc_id": k["doc_id"]})

    keep_fp = runtime.group_agg(
        tagged.map_batches(surv12, batch_format="pyarrow"),
        "fp", {"keep_id": ("min", "doc_id")},
    )
    staged = runtime.join(tagged, keep_fp, "left_outer",
                          on=("fp",)).materialize()

    def surv3(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.and_(pc.equal(t["lang_ok"], 1), pc.equal(t["qual_ok"], 1)),
            pc.equal(t["doc_id"], t["keep_id"]),
        )
        return pa.table({"doc_id": t.filter(keep)["doc_id"]})

    surv_ids = staged.map_batches(surv3, batch_format="pyarrow")
    surv_docs = runtime.join(docs, surv_ids, "inner", on=("doc_id",))
    pairs = mh.near_dup_pairs(
        surv_docs, n_hashes=64, n_bands=16, shingle_k=5,
        threshold=CURATION_J, verify="shuffle", num_partitions=8,
    )
    clusters = cluster_ops.dedup_clusters(
        surv_ids, pairs, id_col="doc_id", num_partitions=4
    ).map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"],
             "is_rep": t["is_representative"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )

    out = runtime.join(staged, clusters, "left_outer", on=("doc_id",))

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lang_ok = t["lang_ok"].to_numpy(zero_copy_only=False)
        qual_ok = t["qual_ok"].to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        kid = np.where(
            pc.is_valid(t["keep_id"]).to_numpy(zero_copy_only=False),
            np.nan_to_num(
                t["keep_id"].cast(pa.float64()).to_numpy(
                    zero_copy_only=False), nan=-1.0
            ),
            -1.0,
        )
        rep = np.where(
            pc.is_valid(t["is_rep"]).to_numpy(zero_copy_only=False),
            np.nan_to_num(
                t["is_rep"].cast(pa.float64()).to_numpy(
                    zero_copy_only=False), nan=0.0
            ),
            0.0,
        )
        stage = np.where(
            lang_ok == 0, 1,
            np.where(
                qual_ok == 0, 2,
                np.where(did != kid, 3, np.where(rep == 0, 4, 0)),
            ),
        ).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"], "stage": pa.array(stage)})

    return out.map_batches(finish, batch_format="pyarrow")


def _sql_curation() -> str:
    """SQL twin of the composed curation pipeline: the langid CASE chain +
    integer quality gates + keep-min-per-text exact dedup + the exact
    relational Jaccard closure of SQL_NEARDUP_CLUSTERS restricted to the
    survivor set."""
    cases = []
    langs = ["en", "de", "fr", "es"]
    for i, lang in enumerate(langs):
        rest = [f"c_{lang} >= c_{o}" for o in langs[i + 1:]]
        cond = " AND ".join(rest) if rest else "TRUE"
        cases.append(f"WHEN {cond} THEN '{lang}'")
    case_chain = "\n            ".join(cases)
    counts = ",\n         ".join(
        f"count(*) FILTER (WHERE w IN ({_sql_stoplist(lang)})) AS c_{lang}"
        for lang in langs
    )
    return f"""
WITH RECURSIVE ltoks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[\\p{{L}}\\p{{N}}_'']+')) AS w
  FROM documents
),
a AS (SELECT doc_id, count(*) AS nw,
         {counts}
      FROM ltoks GROUP BY doc_id),
d AS (SELECT doc_id,
         length(regexp_replace(text, '[^一-鿿]', '', 'g')) AS cjk,
         GREATEST(length(text), 1) AS ln
      FROM documents),
pred AS (SELECT d.doc_id,
        CASE WHEN 20 * cjk > ln THEN 'zh'
             WHEN a.doc_id IS NULL OR nw = 0
               OR 50 * GREATEST(c_en, c_de, c_fr, c_es) <= nw THEN 'unk'
             {case_chain}
        END AS pred
      FROM d LEFT JOIN a USING (doc_id)),
feat AS (SELECT doc_id, length(text) AS nc, len(toks) AS ntok,
                len(list_distinct(toks)) AS nuniq
         FROM (SELECT doc_id, text,
                      regexp_extract_all(text, '[\\p{{L}}\\p{{N}}_'']+') AS toks
               FROM documents)),
s1 AS (SELECT doc_id FROM pred WHERE pred = 'en'),
s2 AS (SELECT f.doc_id FROM feat f JOIN s1 USING (doc_id)
       WHERE f.nc >= {CURATION_MIN_CHARS} AND 5 * f.nuniq >= 2 * f.ntok),
s3 AS (SELECT doc_id FROM (
         SELECT dd.doc_id, MIN(dd.doc_id) OVER (PARTITION BY dd.text) AS m
         FROM documents dd JOIN s2 USING (doc_id))
       WHERE doc_id = m),
grams AS (
  SELECT DISTINCT doc_id, substr(text, j, 5) AS gram
  FROM (SELECT dd.doc_id, dd.text, unnest(range(1, length(dd.text) - 3)) AS j
        FROM documents dd JOIN s3 USING (doc_id))
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT g1.doc_id AS id_a, g2.doc_id AS id_b, COUNT(*) AS c
  FROM grams g1 JOIN grams g2 ON g1.gram = g2.gram AND g1.doc_id < g2.doc_id
  GROUP BY 1, 2
),
jac AS (
  SELECT id_a, id_b
  FROM inter JOIN sizes sa ON sa.doc_id = id_a JOIN sizes sb ON sb.doc_id = id_b
  WHERE CAST(c AS DOUBLE) / (sa.n + sb.n - c) >= {CURATION_J}
),
e AS (SELECT id_a AS ea, id_b AS eb FROM jac
      UNION SELECT id_b, id_a FROM jac),
r(ra, rb) AS (
  SELECT doc_id, doc_id FROM s3
  UNION
  SELECT r.ra, e.eb FROM r JOIN e ON e.ea = r.rb
),
comp AS (SELECT ra AS doc_id, MIN(rb) AS cluster FROM r GROUP BY ra)
SELECT dd.doc_id,
  CAST(CASE WHEN s1.doc_id IS NULL THEN 1
            WHEN s2.doc_id IS NULL THEN 2
            WHEN s3.doc_id IS NULL THEN 3
            WHEN comp.cluster <> dd.doc_id THEN 4
            ELSE 0 END AS BIGINT) AS stage
FROM documents dd
LEFT JOIN s1 ON s1.doc_id = dd.doc_id
LEFT JOIN s2 ON s2.doc_id = dd.doc_id
LEFT JOIN s3 ON s3.doc_id = dd.doc_id
LEFT JOIN comp ON comp.doc_id = dd.doc_id
"""


SQL_CORPUS_CURATION = _sql_curation()


def q_tfidf(sf_dir: str):
    """Top-5 distinctive terms per document ranked by the integer-exact
    tf-idf order (tf DESC, df ASC, w ASC) — ops.text.tfidf_topk: tokenize
    once, two-phase df count, hash join on the term, per-doc top-k on
    ``runtime.by_key``."""
    from georay.ops import text as text_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return text_ops.tfidf_topk(docs, k=5).select_columns(
        ["doc_id", "w", "tf", "df", "rank"]
    )


SQL_TFIDF = r"""
WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w
              FROM documents),
tf AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS tf
       FROM toks GROUP BY doc_id, w),
df AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY w),
ranked AS (
  SELECT doc_id, tf.w AS w, tf, df,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY doc_id ORDER BY tf DESC, df ASC, tf.w ASC
         ) AS BIGINT) AS rank
  FROM tf JOIN df USING (w))
SELECT doc_id, w, tf, df, rank FROM ranked WHERE rank <= 5
"""


def q_simhash_neardup(sf_dir: str):
    """SimHash block-LSH near-dup, hard-checked: with max_hamming=6 <
    n_blocks=8 the blocking is EXACT (pigeonhole), so the result equals the
    full O(n²) hamming self-join — which the SQL twin computes after
    replaying the 64-bit word-level FNV-1a + majority-vote simhash with a
    recursive CTE (HUGEINT modular arithmetic)."""
    from georay.ops import minhash as mh

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return mh.simhash_near_dup_pairs(docs, max_hamming=6, n_blocks=8)


# NOTE: valid for ASCII corpora (ord(char) == utf-8 byte); the Python side
# hashes utf-8 bytes. The testdata documents are pure ASCII.
SQL_SIMHASH = r"""
WITH RECURSIVE
toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w
         FROM documents),
words AS (SELECT DISTINCT w FROM toks),
fnv AS (
  SELECT w, 1 AS i, CAST(14695981039346656037 AS UBIGINT) AS h FROM words
  UNION ALL
  SELECT w, i + 1,
    CAST(CAST((CAST(xor(h, CAST(ord(substr(w, i, 1)) AS UBIGINT)) AS HUGEINT)
         * 1099511628211) % 18446744073709551616 AS HUGEINT) AS UBIGINT)
  FROM fnv WHERE i <= length(w)
),
wh AS (SELECT w, h FROM fnv WHERE i = length(w) + 1),
bits AS (
  SELECT t.doc_id, r.b,
         SUM(CAST(CAST(wh.h >> CAST(r.b AS UBIGINT) AS UBIGINT) & 1 AS BIGINT)) AS c,
         COUNT(*) AS nw
  FROM toks t JOIN wh ON wh.w = t.w
  CROSS JOIN (SELECT unnest(range(0, 64)) AS b) r
  GROUP BY 1, 2
),
sh AS (
  SELECT doc_id,
    CAST(SUM(CASE WHEN 2 * c > nw THEN
           CASE WHEN b = 63 THEN CAST(-9223372036854775808 AS HUGEINT)
                ELSE CAST(1 AS HUGEINT) << CAST(b AS INTEGER) END
         ELSE CAST(0 AS HUGEINT) END) AS BIGINT) AS sim
  FROM bits GROUP BY doc_id
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.sim, b.sim)) AS BIGINT) AS hamming
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sim, b.sim)) <= 6
"""


def q_ann_ivf(sf_dir: str):
    """IVF-bucketed ANN run in its EXACT mode (n_probe == n_centroids →
    every inverted list scored → mathematically identical to brute force),
    so the full IVF machinery (centroid assignment, per-list scoring, merge)
    is hard-checked against the brute-force SQL oracle. The pruned
    approximate mode (n_probe < n_centroids) is unit-tested for recall ≥ 0.9
    (tests/test_textops.py::test_ivf_recall_clustered)."""
    from georay.ops import similarity as sim

    table = _read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mask = (table["vec_id"].to_numpy() % 10) == 0
    q_ids = table["vec_id"].to_numpy()[mask]
    q_mat = sim.emb_matrix(table["embedding"])[mask]
    all_mat = sim.emb_matrix(table["embedding"])
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = sim.ivf_topk(
        emb, q_ids, q_mat, k=ANN_K, n_centroids=16, n_probe=16,
        sample_mat=all_mat[:: max(1, all_mat.shape[0] // 256)],
    )
    return out.select_columns(["query_id", "neighbor_id", "rank"])


def q_ann_ivf_sq8(sf_dir: str):
    """IVF pruning composed with SQ8 integer scoring (the FAISS ``IVF,SQ8``
    shape), run in its EXACT mode (n_probe == n_centroids → every inverted
    list scored → identical to the sq8 brute ranking), so the combined
    machinery (codebook, centroid assignment, per-list integer scoring,
    merge) is hard-checked against the integer SQL oracle. The pruned mode
    (n_probe < n_centroids) is unit-tested for recall ≥ 0.9
    (tests/test_textops.py::test_ivf_sq8_recall_clustered)."""
    from georay.ops import similarity as sim

    table = _read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    all_mat = sim.emb_matrix(table["embedding"])
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return sim.ivf_sq8_topk(
        emb, query_mask_mod=10, k=ANN_K, n_centroids=16, n_probe=16,
        sample_mat=all_mat[:: max(1, all_mat.shape[0] // 256)],
    )


def q_ann_index_lifecycle(sf_dir: str):
    """Persisted vector-index lifecycle under oracle check (VecIndex —
    the ANN build/open split CellIndex provides for the spatial family):
    BUILD the IVF-SQ8 index (distributed codebook + encode, one parquet
    partition per inverted list, checkpointed write), OPEN a fresh handle
    from disk (props + quantizer sidecars only), QUERY at full probe.
    At n_probe == n_centroids the loaded index's ranking is bit-identical
    to the in-flight ivf_sq8_topk, so the integer SQ8 SQL oracle gates
    the whole save/load round trip — any quantizer drift, lost partition
    or code-blob corruption breaks the match. Fresh root per call: the
    lifecycle itself is the unit under test, never a cache hit."""
    import os
    import shutil
    import tempfile

    from georay.ops import similarity as sim
    from georay.vecindex import VecIndex

    root = os.path.join(
        tempfile.gettempdir(),
        f"georay_vecidx_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    shutil.rmtree(root, ignore_errors=True)

    table = _read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    all_mat = sim.emb_matrix(table["embedding"])
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    VecIndex.build(
        emb, root, sample_mat=all_mat[:: max(1, all_mat.shape[0] // 256)],
        n_centroids=16,
    )
    idx = VecIndex(root)  # fresh open: everything must come from disk
    ids = table["vec_id"].to_numpy(zero_copy_only=False)
    mask = ids % 10 == 0
    return idx.query_topk(ids[mask], all_mat[mask], k=ANN_K, n_probe=16)


def q_ann_index_pq_lifecycle(sf_dir: str):
    """Persisted IVF-PQ lifecycle under oracle check (VecIndex.build_pq —
    the FAISS ``IVF,PQ`` layout: 8 one-byte codeword ids per vector on
    disk instead of ``dim`` SQ8 bytes). BUILD with the same codebook rows
    (vec_id < 16, ascending) and full-corpus SQ8 ranges the in-flight
    ivf_pq_topk derives, OPEN fresh from disk, QUERY at full probe: the
    ADC ranking is then mathematically identical to pq_topk, so the
    relational PQ SQL oracle gates the whole persisted round trip —
    codeword drift, a lost inverted list, or LUT layout corruption all
    break the match. Fresh root per call."""
    import os
    import shutil
    import tempfile

    from georay.ops import similarity as sim
    from georay.vecindex import VecIndex

    root = os.path.join(
        tempfile.gettempdir(),
        f"georay_vecidxpq_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    shutil.rmtree(root, ignore_errors=True)

    table = _read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    all_mat = sim.emb_matrix(table["embedding"])
    ids = table["vec_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="quicksort")
    cb_mask = ids[order] < 16
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    VecIndex.build_pq(
        emb, root,
        sample_mat=all_mat[:: max(1, all_mat.shape[0] // 256)],
        cb_mat=all_mat[order][cb_mask],
        n_centroids=8, m_subspaces=8,
    )
    idx = VecIndex(root)  # fresh open: everything must come from disk
    mask = ids % 10 == 0
    return idx.query_topk(ids[mask], all_mat[mask], k=ANN_K, n_probe=8)


KMEANS_K, KMEANS_ITERS, KMEANS_SCALE, EMB_DIM = 8, 3, 1 << 20, 64


def q_kmeans(sf_dir: str):
    """Distributed Lloyd's k-means over the embedding table — the iterative
    class: int-scaled embeddings + exact integer (Σx, n) partials make every
    iteration's centroids batch-order-independent, so 3 unrolled iterations
    land on the same assignment as the SQL replica (ops.similarity
    .kmeans_lloyd for the determinism contract)."""
    from georay.ops import similarity as sim

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return sim.kmeans_lloyd(
        emb, k=KMEANS_K, iters=KMEANS_ITERS, scale=KMEANS_SCALE
    )


def sql_kmeans(k: int = KMEANS_K, iters: int = KMEANS_ITERS,
               scale: int = KMEANS_SCALE, dim: int = EMB_DIM) -> str:
    parts = _sql_kmeans_parts(k, iters, scale, dim)
    body = ",\n".join(parts)
    return f"WITH\n{body}\nSELECT vec_id, cluster FROM afinal"


def _sql_kmeans_parts(k: int = KMEANS_K, iters: int = KMEANS_ITERS,
                      scale: int = KMEANS_SCALE, dim: int = EMB_DIM) -> list:
    """Unrolled Lloyd's replica: e = int-scaled (vec_id, d, xi) rows;
    c0 = the k smallest vec_ids (cluster j = id rank); each iteration is a
    plain CTE pair (argmin assignment via ROW_NUMBER ORDER BY dist,
    cluster — the np.argmin tie-break — then exact integer re-sums with a
    LEFT-JOIN COALESCE keeping empty clusters' previous centroids).
    Returns the CTE part list ending in ``afinal(vec_id, cluster)`` so
    composed twins (semantic_dedup) can extend the chain."""
    parts = [
        f"e AS (SELECT vec_id, i AS d, CAST(FLOOR(CAST(embedding[i + 1] AS "
        f"DOUBLE) * {float(scale)!r}) AS BIGINT) AS xi "
        f"FROM embeddings, range(0, {dim}) t(i))",
        f"init AS (SELECT vec_id, CAST(ROW_NUMBER() OVER (ORDER BY vec_id) "
        f"- 1 AS BIGINT) AS cluster FROM "
        f"(SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k}))",
        "c0 AS (SELECT init.cluster, e.d, e.xi AS s, CAST(1 AS BIGINT) AS c "
        "FROM e JOIN init ON e.vec_id = init.vec_id)",
    ]
    for it in range(1, iters + 1):
        prev = f"c{it - 1}"
        parts.append(
            f"a{it} AS (SELECT vec_id, cluster FROM ("
            f"  SELECT vec_id, cluster, ROW_NUMBER() OVER ("
            f"    PARTITION BY vec_id ORDER BY dist, cluster) AS rn FROM ("
            f"    SELECT e.vec_id, p.cluster,"
            f"           SUM((e.xi - p.s / CAST(p.c AS DOUBLE))"
            f"             * (e.xi - p.s / CAST(p.c AS DOUBLE))) AS dist"
            f"    FROM e JOIN {prev} p ON e.d = p.d"
            f"    GROUP BY e.vec_id, p.cluster)) WHERE rn = 1)"
        )
        parts.append(
            f"n{it} AS (SELECT a.cluster, e.d, CAST(SUM(e.xi) AS BIGINT) AS s,"
            f" CAST(COUNT(*) AS BIGINT) AS c"
            f" FROM a{it} a JOIN e ON a.vec_id = e.vec_id"
            f" GROUP BY a.cluster, e.d)"
        )
        parts.append(
            f"c{it} AS (SELECT p.cluster, p.d, COALESCE(n.s, p.s) AS s,"
            f" COALESCE(n.c, p.c) AS c FROM {prev} p"
            f" LEFT JOIN n{it} n ON n.cluster = p.cluster AND n.d = p.d)"
        )
    # the engine's OUTPUT assignment runs against the post-loop centroids
    # (c{iters}) — one extra argmin beyond the last update
    parts.append(
        f"afinal AS (SELECT vec_id, cluster FROM ("
        f"  SELECT vec_id, cluster, ROW_NUMBER() OVER ("
        f"    PARTITION BY vec_id ORDER BY dist, cluster) AS rn FROM ("
        f"    SELECT e.vec_id, p.cluster,"
        f"           SUM((e.xi - p.s / CAST(p.c AS DOUBLE))"
        f"             * (e.xi - p.s / CAST(p.c AS DOUBLE))) AS dist"
        f"    FROM e JOIN c{iters} p ON e.d = p.d"
        f"    GROUP BY e.vec_id, p.cluster)) WHERE rn = 1)"
    )
    return parts


SEMDEDUP_T = 0.45


def q_semantic_dedup(sf_dir: str):
    """SemDeDup-shaped semantic dedup: k-means clusters bound the pairwise
    cosine to within-cluster pairs; keep-lowest-id rule (deterministic).
    One ``runtime.by_key`` exchange co-locates each cluster's
    packed-float32 embeddings; the per-cluster kernel is a single
    normalized matmul. SQL twin = the unrolled-kmeans CTE chain +
    a within-cluster lower-id EXISTS at the same threshold."""
    from georay.ops import similarity as sim

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return sim.semantic_dedup(
        emb, k=KMEANS_K, iters=KMEANS_ITERS, threshold=SEMDEDUP_T,
        scale=KMEANS_SCALE,
    )


def sql_semantic_dedup(k: int = KMEANS_K, iters: int = KMEANS_ITERS,
                       scale: int = KMEANS_SCALE, dim: int = EMB_DIM,
                       threshold: float = SEMDEDUP_T) -> str:
    parts = _sql_kmeans_parts(k, iters, scale, dim)
    parts.append(
        f"dup AS (SELECT DISTINCT a.vec_id FROM afinal a"
        f" JOIN afinal b ON b.cluster = a.cluster AND b.vec_id < a.vec_id"
        f" JOIN embeddings ea ON ea.vec_id = a.vec_id"
        f" JOIN embeddings eb ON eb.vec_id = b.vec_id"
        f" WHERE list_cosine_similarity(ea.embedding, eb.embedding)"
        f" >= {threshold!r})"
    )
    body = ",\n".join(parts)
    return (
        f"WITH\n{body}\n"
        f"SELECT f.vec_id, CAST(f.cluster AS BIGINT) AS cluster,"
        f" CAST(CASE WHEN d.vec_id IS NULL THEN 1 ELSE 0 END AS BIGINT)"
        f" AS keep"
        f" FROM afinal f LEFT JOIN dup d ON d.vec_id = f.vec_id"
    )


RASTER_TILE_BITS = 4


def q_raster(sf_dir: str):
    """Dense raster assembly of per-cell image counts (to_xarray parity).
    Hard-checked: each assembled grid is summarized by an integer
    position-weighted checksum Σ values[i,j]·(i·w+j+1) computed FROM THE
    ASSEMBLED TENSOR, which the SQL twin reproduces from per-cell counts —
    any misplacement, dimension, or origin error breaks the hash."""
    from georay import fixtures

    ds = fixtures.read_images(sf_dir, columns=["lon", "lat"])

    def to_cell(t: pa.Table) -> pa.Table:
        cell = codec.encode(
            t["lon"].to_numpy(zero_copy_only=False),
            t["lat"].to_numpy(zero_copy_only=False),
            BITS_TILE,
        )
        u, c = np.unique(cell, return_counts=True)
        return pa.table({"cell": u.astype(np.int64), "n": c.astype(np.int64)})

    cells_ds = ds.map_batches(to_cell, batch_format="pyarrow", zero_copy_batch=True)
    agg = tiles.tile_aggregate(cells_ds, BITS_TILE, "n")

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"cell": t["tile"], "n": t["sum_val"]})

    out = tiles.assemble_raster(
        agg.map_batches(rename, batch_format="pyarrow"),
        bits=BITS_TILE,
        value_col="n",
        tile_bits=RASTER_TILE_BITS,
    )

    def summarize(t: pa.Table) -> pa.Table:
        tile = t["tile"].to_numpy(zero_copy_only=False).astype(np.uint64)
        tx, ty = codec.deinterleave(tile, RASTER_TILE_BITS)
        # the grids arrive as Ray's ArrowTensorArray extension — per-row
        # python access is fine here (one row per TILE, not per record)
        arrs = t["values"].to_pylist()
        n_rows = len(t)
        total = np.empty(n_rows, dtype=np.int64)
        checksum = np.empty(n_rows, dtype=np.int64)
        for k in range(n_rows):
            v = np.asarray(arrs[k]).ravel().astype(np.int64)
            total[k] = v.sum()
            checksum[k] = (v * (np.arange(v.size, dtype=np.int64) + 1)).sum()
        return pa.table(
            {
                "tile_x": pa.array(tx.astype(np.int64)),
                "tile_y": pa.array(ty.astype(np.int64)),
                "x0": t["x0"].cast(pa.int64()),
                "y0": t["y0"].cast(pa.int64()),
                "h": t["h"].cast(pa.int64()),
                "w": t["w"].cast(pa.int64()),
                "total_n": pa.array(total),
                "checksum": pa.array(checksum),
            }
        )

    return out.map_batches(summarize, batch_format="pyarrow")


def sql_raster(n: int) -> str:
    """SQL twin of q_raster: per-cell counts → per-tile bounds → the same
    position-weighted checksum Σ n·((y−y0)·w + (x−x0) + 1) (missing cells
    contribute 0 on both sides)."""
    return f"""
WITH p AS ({_sql_img_coords(n)}),
c AS (SELECT {sql_x('lon', 5)} AS x, {sql_y('lat', 5)} AS y, COUNT(*) AS n
      FROM p GROUP BY 1, 2),
t AS (SELECT x // 8 AS tile_x, y // 8 AS tile_y, x, y, n FROM c),
b AS (SELECT tile_x, tile_y, MIN(x) AS x0, MIN(y) AS y0,
             MAX(y) - MIN(y) + 1 AS h, MAX(x) - MIN(x) + 1 AS w
      FROM t GROUP BY 1, 2)
SELECT t.tile_x, t.tile_y, b.x0, b.y0, b.h, b.w,
       CAST(SUM(t.n) AS BIGINT) AS total_n,
       CAST(SUM(t.n * ((t.y - b.y0) * b.w + (t.x - b.x0) + 1)) AS BIGINT)
         AS checksum
FROM t JOIN b USING (tile_x, tile_y)
GROUP BY 1, 2, 3, 4, 5, 6
"""


def q_compact(sf_dir: str):
    """Distributed H3-style compact of order cells at 12 bits,
    hard-checked: the quadtree promotion (complete sibling sets replaced by
    their parent, floored at the 6-bit anchor) is replayed relationally in
    (x, y) space by the SQL twin — output is the per-precision cell count."""
    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    pts = spatial.points_with_cells(orders, "o_orderkey", 12, xy=False)
    comp = cells.compact_dataset(
        pts.select_columns(["cell"]), "cell", bits=12, step=2, anchor_bits=6
    )
    out = tiles.count_by(comp, "cell_bits")

    def widen(t: pa.Table) -> pa.Table:
        return pa.table(
            {"cell_bits": t["cell_bits"].cast(pa.int64()), "n": t["n"]}
        )

    return out.map_batches(widen, batch_format="pyarrow")


def _sql_compact() -> str:
    """SQL twin of q_compact: parent-of-(x,y) is (x//2, y//2); a level-L
    cell is promoted iff all 4 children exist at level L+2. Three promotion
    rounds take 12 bits down to the 6-bit anchor floor (compact_dataset's
    anchor prevents promotion past it; relationally the chain just stops).
    The dense orders table gives a real mix of promoted and kept cells at
    every level."""
    parts = [
        f"l12 AS (SELECT DISTINCT x, y FROM "
        f"(SELECT {sql_x(sql_lon('o_orderkey'), 6)} AS x, "
        f"{sql_y(sql_lat('o_orderkey'), 6)} AS y FROM orders))"
    ]
    levels = [12, 10, 8, 6]
    for parent, child in zip(levels[1:], levels[:-1]):
        parts.append(
            f"p{parent} AS (SELECT x // 2 AS x, y // 2 AS y FROM l{child} "
            f"GROUP BY 1, 2 HAVING COUNT(*) = 4)"
        )
        parts.append(
            f"k{child} AS (SELECT l.x, l.y FROM l{child} l LEFT JOIN p{parent} p "
            f"ON p.x = l.x // 2 AND p.y = l.y // 2 WHERE p.x IS NULL)"
        )
        if parent > levels[-1]:
            parts.append(f"l{parent} AS (SELECT x, y FROM p{parent})")
    unions = "\nUNION ALL ".join(
        [f"SELECT {b} AS cell_bits, COUNT(*) AS n FROM k{b}" for b in levels[:-1]]
        + [f"SELECT {levels[-1]} AS cell_bits, COUNT(*) AS n FROM p{levels[-1]}"]
    )
    return (
        "WITH " + ",\n".join(parts)
        + f"\nSELECT CAST(cell_bits AS BIGINT) AS cell_bits, n FROM ({unions}) "
        "WHERE n > 0"
    )


SQL_COMPACT = _sql_compact()


# ----------------------------------------------------- more windows / reshape


def q_events_sliding(sf_dir: str):
    """7-day sliding windows (1-day slide) per event_type: each event
    expands to its 7 covering windows (vectorized), then two-phase agg."""
    from georay.ops import window as win

    ev = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    day = 86_400
    return win.sliding(
        ev, "event_type", "ts", "value",
        width_us=7 * day, slide_us=day, ts_scale_us=1_000_000,
    )


SQL_EVENTS_SLIDING = """
WITH e AS (
  SELECT event_type,
         (CAST(FLOOR(EPOCH(ts)) AS BIGINT) // 86400) * 86400 AS last_start,
         CAST(FLOOR(value * 1000) AS BIGINT) AS milli
  FROM events
), x AS (
  SELECT event_type, last_start - k * 86400 AS win_start, milli
  FROM e, (SELECT unnest(range(0, 7)) AS k)
  WHERE last_start - k * 86400 >= 0
)
SELECT event_type, win_start, COUNT(*) AS n,
       CAST(SUM(milli) AS BIGINT) AS sum_val_milli
FROM x GROUP BY 1, 2
"""


def q_running_stats(sf_dir: str):
    """Row-based window functions per user (ROW_NUMBER, running int-exact
    value sum, LAG time gap, 3-row rolling sum) — ops.window.running_stats,
    one ``runtime.by_key`` exchange + numpy windows per bucket. SQL
    twin is the standard four-window SELECT."""
    from georay.ops import window as win

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])
    return win.running_stats(ev, "user_id", "ts", "event_id", "value", roll=3)


SQL_RUNNING_STATS = """
WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS us,
                  CAST(FLOOR(value * 1000) AS BIGINT) AS milli FROM events)
SELECT user_id, event_id,
       ROW_NUMBER() OVER w AS seq,
       CAST(SUM(milli) OVER (w ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS cum_milli,
       CAST(COALESCE(us - LAG(us) OVER w, 0) AS BIGINT) AS dt_us,
       CAST(SUM(milli) OVER (w ROWS 2 PRECEDING) AS BIGINT) AS roll_milli
FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
"""


def q_max_concurrency(sf_dir: str):
    """Sweep-line max overlap: each event opens a 1-hour interval; per
    event_type, the max number simultaneously open
    (ops.window.max_concurrency — ±1 boundary rows, one
    ``runtime.by_key`` exchange, local sort+cumsum sweep). SQL twin: UNION
    ALL boundaries + running window SUM."""
    from georay.ops import window as win

    evs = _events_secs(sf_dir)

    def spans(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"event_type": t["event_type"], "s": pa.array(s),
             "e": pa.array(s + 3600)}
        )

    return win.max_concurrency(
        evs.map_batches(spans, batch_format="pyarrow"), "event_type", "s", "e"
    )


SQL_MAX_CONCURRENCY = """
WITH ev AS (SELECT event_type, CAST(FLOOR(EPOCH(ts)) AS BIGINT) AS s
            FROM events),
b AS (SELECT event_type, s AS t, CAST(1 AS BIGINT) AS d FROM ev
      UNION ALL
      SELECT event_type, s + 3600, CAST(-1 AS BIGINT) FROM ev),
r AS (SELECT event_type,
             SUM(d) OVER (PARTITION BY event_type ORDER BY t, d
                          ROWS UNBOUNDED PRECEDING) AS c
      FROM b)
SELECT event_type, CAST(MAX(c) AS BIGINT) AS max_concurrent
FROM r GROUP BY event_type
"""


def q_user_top_event(sf_dir: str):
    """Per-group MODE (argmax): each user's most frequent event type, count
    ties broken by event_type ascending — two-phase (user, type) counts
    composed with ops.rank.grouped_topk at k=1. SQL twin: ROW_NUMBER over
    grouped counts."""
    from georay.ops.rank import grouped_topk

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def user_type(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"].cast(pa.int64()),
                         "event_type": t["event_type"]})

    counts = runtime.group_agg(
        ev.map_batches(user_type, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id", "event_type"], {"n": ("count", None)},
    )
    top = grouped_topk(counts, ["user_id"], ["n", "event_type"],
                       [False, True], k=1)
    return top.select_columns(["user_id", "event_type", "n"])


SQL_USER_TOP_EVENT = """
SELECT user_id, event_type, n FROM (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY COUNT(*) DESC, event_type) AS rk
  FROM events GROUP BY user_id, event_type)
WHERE rk = 1
"""


PIVOT_TYPES = ["click", "purchase", "signup", "view"]  # 'error' → n_other


def q_events_pivot(sf_dir: str):
    """Pivot/crosstab: per-user wide event-type count columns
    (ops.pivot.pivot_counts — wide partials per batch, ONE Sum groupby;
    the 'error' type is deliberately unlisted to exercise n_other)."""
    from georay.ops.pivot import pivot_counts

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return pivot_counts(ev, "user_id", "event_type", PIVOT_TYPES)


SQL_EVENTS_PIVOT = f"""
SELECT user_id,
  {", ".join(f"CAST(COUNT(*) FILTER (event_type = '{v}') AS BIGINT) AS n_{v}"
             for v in PIVOT_TYPES)},
  CAST(COUNT(*) FILTER (event_type NOT IN
       ({", ".join(repr(v) for v in PIVOT_TYPES)})) AS BIGINT) AS n_other
FROM events GROUP BY user_id
"""


FUNNEL_STAGES = ["view", "click", "purchase"]


def q_events_funnel(sf_dir: str):
    """Ordered funnel view→click→purchase per user: the greedy strictly-
    increasing timestamp chain (ops.window.funnel — one
    ``runtime.by_key`` exchange after batch-local shrink to funnel events +
    stage-0 key sentinels). One row per user with the deepest stage
    reached. SQL twin chains MIN-timestamp subqueries."""
    from georay.ops import window as win

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    return win.funnel(ev, "user_id", "ts", "event_type", FUNNEL_STAGES)


SQL_EVENTS_FUNNEL = f"""
WITH e AS (SELECT user_id, epoch_us(ts) AS us, event_type FROM events),
u AS (SELECT DISTINCT user_id FROM e),
s1 AS (SELECT user_id, MIN(us) AS t1 FROM e
       WHERE event_type = '{FUNNEL_STAGES[0]}' GROUP BY user_id),
s2 AS (SELECT e.user_id, MIN(e.us) AS t2 FROM e JOIN s1 USING (user_id)
       WHERE e.event_type = '{FUNNEL_STAGES[1]}' AND e.us > s1.t1
       GROUP BY e.user_id),
s3 AS (SELECT e.user_id, MIN(e.us) AS t3 FROM e JOIN s2 USING (user_id)
       WHERE e.event_type = '{FUNNEL_STAGES[2]}' AND e.us > s2.t2
       GROUP BY e.user_id)
SELECT u.user_id,
       CAST(CASE WHEN s3.user_id IS NOT NULL THEN 3
                 WHEN s2.user_id IS NOT NULL THEN 2
                 WHEN s1.user_id IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
         AS stage
FROM u LEFT JOIN s1 USING (user_id) LEFT JOIN s2 USING (user_id)
       LEFT JOIN s3 USING (user_id)
"""


def q_events_session(sf_dir: str):
    """Session windows (2-day inactivity gap) per event_type — per-key sort
    + gap split per ``runtime.by_key`` bucket; the SQL twin uses LAG +
    cumulative breaks."""
    from georay.ops import window as win

    ev = _read(sf_dir, "events", columns=["event_type", "ts"])
    out = win.session(
        ev, "event_type", "ts", gap_us=2 * 86_400, ts_scale_us=1_000_000,
    )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "session_start_s": t["session_start_us"],
                "session_end_s": t["session_end_us"],
                "n": t["n"].cast(pa.int64()),
            }
        )

    return out.map_batches(rename, batch_format="pyarrow")


SQL_EVENTS_SESSION = """
WITH o AS (SELECT event_type, CAST(FLOOR(EPOCH(ts)) AS BIGINT) AS s FROM events),
m AS (SELECT event_type, s,
        CASE WHEN s - LAG(s) OVER (PARTITION BY event_type ORDER BY s) > 172800
             THEN 1 ELSE 0 END AS brk
      FROM o),
g AS (SELECT event_type, s,
        SUM(brk) OVER (PARTITION BY event_type ORDER BY s
                       ROWS UNBOUNDED PRECEDING) AS sid
      FROM m)
SELECT event_type, MIN(s) AS session_start_s, MAX(s) AS session_end_s,
       COUNT(*) AS n
FROM g GROUP BY event_type, sid
"""


def q_compact_roundtrip(sf_dir: str):
    """Compact → distributed UNCOMPACT roundtrip: re-expanding the
    mixed-precision compaction output at the base precision must
    reconstruct exactly the distinct input cell set (count + xy-checksum
    hard check; the lossless-roundtrip property is H3 compact/uncompact
    parity, SURVEY.md N1)."""
    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    pts = spatial.points_with_cells(orders, "o_orderkey", 12, xy=False)
    comp = cells.compact_dataset(
        pts.select_columns(["cell"]), "cell", bits=12, step=2, anchor_bits=6
    )
    back = cells.uncompact_dataset(comp, target_bits=12)

    def xy(t: pa.Table) -> pa.Table:
        c = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(c, 12)
        # xy-weighted checksum so any wrong cell (not just a wrong count)
        # breaks the hash
        return pa.table({"xy": x.astype(np.int64) * 64 + y})

    return runtime.group_agg(
        back.map_batches(xy, batch_format="pyarrow"), [],
        {"n_cells": ("count", None), "xy_checksum": ("sum", "xy")},
    )


SQL_COMPACT_ROUNDTRIP = f"""
WITH pts AS (SELECT DISTINCT {sql_x(sql_lon('o_orderkey'), 6)} AS x,
                    {sql_y(sql_lat('o_orderkey'), 6)} AS y FROM orders)
SELECT CAST(COUNT(*) AS BIGINT) AS n_cells,
       CAST(SUM(x * 64 + y) AS BIGINT) AS xy_checksum
FROM pts
"""


ASOF_REF_MIN_VALUE = 100.0


def _events_secs(sf_dir: str):
    """events as (event_type, s=floor-epoch-seconds, value) — shared prep
    for the temporal-join queries. Floor division (numpy //) matches the
    oracles' FLOOR(EPOCH(ts)) for pre-1970 timestamps too (Arrow's integer
    divide truncates toward zero and would diverge there)."""
    ev = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def to_secs(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"event_type": t["event_type"], "s": pa.array(us // 1_000_000),
             "value": t["value"]}
        )

    return ev.map_batches(to_secs, batch_format="pyarrow", zero_copy_batch=True)


_SQL_EVENTS_SECS = f"""e AS (SELECT event_type, CAST(FLOOR(EPOCH(ts)) AS BIGINT) AS s FROM events),
r AS (SELECT event_type, CAST(FLOOR(EPOCH(ts)) AS BIGINT) AS s FROM events
      WHERE value >= {ASOF_REF_MIN_VALUE!r})"""


def q_events_asof(sf_dir: str):
    """As-of join: every event matched to the most recent HIGH-VALUE event
    (value >= ASOF_REF_MIN_VALUE) of the same type — one co-group sort
    shuffle + vectorized searchsorted per key (ops.asof). DuckDB's native
    ASOF JOIN is the oracle."""
    from georay.ops import asof as asof_ops

    evs = _events_secs(sf_dir)
    refs = evs.filter(
        expr=f"value >= {ASOF_REF_MIN_VALUE!r}"
    ).select_columns(["event_type", "s"])
    return asof_ops.asof_join(
        evs.select_columns(["event_type", "s"]), refs,
        by="event_type", left_ts="s", right_ts="s",
    )


SQL_EVENTS_ASOF = f"""
WITH {_SQL_EVENTS_SECS}
SELECT e.event_type, e.s, r.s AS s_r
FROM e ASOF JOIN r ON e.event_type = r.event_type AND e.s >= r.s
"""


def q_events_range_join(sf_dir: str):
    """Temporal RANGE join: every event paired with every 1-day window
    opened by a high-value event of the same type that contains it
    (bucketed interval explode → hash equi-join → exact containment
    filter, ops.asof.interval_join). Plain inequality-join oracle."""
    import pyarrow.compute as pc

    from georay.ops import asof as asof_ops

    evs = _events_secs(sf_dir)

    def windows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "w_start": t["s"],
                "w_end": pc.add(t["s"], pa.scalar(86_400)),
            }
        )

    refs = evs.filter(
        expr=f"value >= {ASOF_REF_MIN_VALUE!r}"
    ).map_batches(windows, batch_format="pyarrow")
    out = asof_ops.interval_join(
        evs.select_columns(["event_type", "s"]), refs,
        by="event_type", point_ts="s", start_col="w_start", end_col="w_end",
        bucket=86_400, num_partitions=4,
    )
    return out.select_columns(["event_type", "s", "w_start"])


SQL_EVENTS_RANGE = f"""
WITH {_SQL_EVENTS_SECS}
SELECT e.event_type, e.s, r.s AS w_start
FROM e JOIN r ON e.event_type = r.event_type
             AND e.s >= r.s AND e.s < r.s + 86400
"""


def q_trajectory_stats(sf_dir: str):
    """Per-user trajectory summary over the event stream: each event gets a
    deterministic synthetic capture point (milli-degree integer grid), legs
    are consecutive points in (ts, event_id) order, and the per-user stats
    (leg count, exact integer squared distances, elapsed time, distinct
    BITS_TILE cells visited) come from ONE ``runtime.by_key`` exchange +
    vectorized local diffs (ops.trajectory). SQL twin uses LAG windows."""
    from georay.ops import trajectory as traj

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(eid)
        cx, cy = codec.xy_from_lonlat(lon, lat, BITS_TILE)
        return pa.table(
            {
                "user_id": t["user_id"],
                "us": pa.array(us),
                "event_id": t["event_id"],
                "xi": pa.array((eid * HASH_LON) % 360000),
                "yi": pa.array((eid * HASH_LAT) % 180000),
                "cell": pa.array(cx * 32 + cy),
            }
        )

    pts = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return traj.trajectory_stats(
        pts, "user_id", "us", "event_id", "xi", "yi", cell_col="cell"
    )


LINE_COVER_S, LINE_COVER_NX, LINE_COVER_NY = 11250, 32, 16


def q_line_cover(sf_dir: str):
    """Supercover line rasterization of trajectory legs on a 32×16 grid —
    per-leg covered-cell count + content checksum, all-int64 geometry
    (ops.trajectory.leg_cell_cover), so the SQL twin is exact by
    construction."""
    from georay.ops import trajectory as traj

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": t["user_id"],
                "us": pa.array(us),
                "event_id": t["event_id"],
                "xi": pa.array((eid * HASH_LON) % 360000),
                "yi": pa.array((eid * HASH_LAT) % 180000),
            }
        )

    pts = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return traj.leg_cell_cover(
        pts, "user_id", "us", "event_id", "xi", "yi",
        cell_size=LINE_COVER_S, nx=LINE_COVER_NX, ny=LINE_COVER_NY,
    )


SQL_LINE_COVER = f"""
WITH p AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         (event_id * {HASH_LON}) % 360000 AS xi,
         (event_id * {HASH_LAT}) % 180000 AS yi
  FROM events),
l AS (
  SELECT user_id,
         CAST(ROW_NUMBER() OVER w - 2 AS BIGINT) AS seq,
         LAG(xi) OVER w AS x1, LAG(yi) OVER w AS y1,
         xi AS x2, yi AS y2
  FROM p WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)),
legs AS (SELECT * FROM l WHERE x1 IS NOT NULL),
candx AS (
  SELECT user_id, seq, x1, y1, x2, y2,
         unnest(range(LEAST(x1, x2) // {LINE_COVER_S},
                      LEAST(GREATEST(x1, x2) // {LINE_COVER_S},
                            {LINE_COVER_NX - 1}) + 1)) AS cx
  FROM legs),
cand AS (
  SELECT user_id, seq, x1, y1, x2, y2, cx,
         unnest(range(LEAST(y1, y2) // {LINE_COVER_S},
                      LEAST(GREATEST(y1, y2) // {LINE_COVER_S},
                            {LINE_COVER_NY - 1}) + 1)) AS cy
  FROM candx),
hit AS (
  SELECT user_id, seq, cx, cy
  FROM (
    SELECT user_id, seq, cx, cy,
      (x2 - x1) * (cy * {LINE_COVER_S} - y1)
        - (y2 - y1) * (cx * {LINE_COVER_S} - x1) AS da,
      (x2 - x1) * (cy * {LINE_COVER_S} - y1)
        - (y2 - y1) * ((cx + 1) * {LINE_COVER_S} - x1) AS db,
      (x2 - x1) * ((cy + 1) * {LINE_COVER_S} - y1)
        - (y2 - y1) * (cx * {LINE_COVER_S} - x1) AS dc,
      (x2 - x1) * ((cy + 1) * {LINE_COVER_S} - y1)
        - (y2 - y1) * ((cx + 1) * {LINE_COVER_S} - x1) AS dd
    FROM cand)
  WHERE LEAST(da, db, dc, dd) <= 0 AND GREATEST(da, db, dc, dd) >= 0)
SELECT legs.user_id, legs.seq,
       CAST(COALESCE(n_cov, 0) AS BIGINT) AS n_cov,
       CAST(COALESCE(sum_code, 0) AS BIGINT) AS sum_code
FROM legs LEFT JOIN (
  SELECT user_id, seq, COUNT(*) AS n_cov,
         SUM(cx * {LINE_COVER_NY} + cy) AS sum_code
  FROM hit GROUP BY user_id, seq) h
  ON legs.user_id = h.user_id AND legs.seq = h.seq
"""


SQL_TRAJECTORY = f"""
WITH p AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         (event_id * {HASH_LON}) % 360000 AS xi,
         (event_id * {HASH_LAT}) % 180000 AS yi,
         {sql_x(sql_lon('event_id'), 5)} * 32
           + {sql_y(sql_lat('event_id'), 5)} AS cell
  FROM events),
l AS (
  SELECT user_id, us, cell,
         xi - LAG(xi) OVER w AS dx,
         yi - LAG(yi) OVER w AS dy
  FROM p WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id))
SELECT user_id,
       COUNT(*) AS n_events,
       CAST(COUNT(*) - 1 AS BIGINT) AS n_legs,
       CAST(COALESCE(SUM(dx*dx + dy*dy), 0) AS BIGINT) AS sum_d2,
       CAST(COALESCE(MAX(dx*dx + dy*dy), 0) AS BIGINT) AS max_d2,
       CAST(CASE WHEN COUNT(*) > 1 THEN MAX(us) - MIN(us)
                 ELSE 0 END AS BIGINT) AS sum_dt_us,
       COUNT(DISTINCT cell) AS n_cells
FROM l GROUP BY user_id
"""


def q_od_matrix(sf_dir: str):
    """Origin→destination matrix over per-user event trajectories: legs are
    consecutive events in (ts, event_id) order, each endpoint mapped to its
    BITS_TILE cell; counts per (origin cell, destination cell) pair come
    from one ``runtime.by_key`` exchange + local run-length collapse + a small
    Sum groupby (ops.trajectory.od_matrix). SQL twin is a LAG window."""
    from georay.ops import trajectory as traj

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(eid)
        cx, cy = codec.xy_from_lonlat(lon, lat, BITS_TILE)
        return pa.table(
            {
                "user_id": t["user_id"],
                "us": pa.array(us),
                "event_id": t["event_id"],
                "cell": pa.array((cx * 32 + cy).astype(np.int64)),
            }
        )

    pts = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return traj.od_matrix(pts, "user_id", "us", "event_id", "cell")


SQL_OD_MATRIX = f"""
WITH p AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         {sql_x(sql_lon('event_id'), 5)} * 32
           + {sql_y(sql_lat('event_id'), 5)} AS cell
  FROM events),
l AS (
  SELECT LAG(cell) OVER (PARTITION BY user_id ORDER BY us, event_id)
           AS o_cell,
         cell AS d_cell
  FROM p)
SELECT CAST(o_cell AS BIGINT) AS o_cell, CAST(d_cell AS BIGINT) AS d_cell,
       CAST(COUNT(*) AS BIGINT) AS n
FROM l WHERE o_cell IS NOT NULL GROUP BY o_cell, d_cell
"""


# 1997-01-01 00:00:00 UTC in epoch microseconds — mid-range of the
# fixture's orders/lineitem date span, mirroring TPC-H Q3's date split
REVENUE_CUTOFF_US = 852_076_800_000_000


def q_revenue_topk(sf_dir: str):
    """TPC-H Q3 shape — segment-filtered customers ⋈ date-filtered orders ⋈
    lineitem revenue, top-10 orders by revenue. Plan: lineitem revenue is
    pre-aggregated per batch in exact integer units (cents × (100 −
    discount_pct), order-independent), the small BUILDING customer key set
    broadcast semi-joins the date-filtered orders (dimension side — the
    Bloom path in ops.join covers the 10^10-key scale), per-order revenue
    sums, ONE hash join keeps the qualifying orders, and a distributed sort
    + limit finishes."""
    import pyarrow.compute as pc

    cust = _read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    keys = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))[
        "c_custkey"
    ].to_numpy()

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_prep(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = pa.array(us < REVENUE_CUTOFF_US)
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"].filter(keep),
                "o_custkey": t["o_custkey"].filter(keep),
            }
        )

    orders_b = join_ops.broadcast_semi_join(
        orders.map_batches(ord_prep, batch_format="pyarrow", zero_copy_batch=True),
        keys, on="o_custkey",
    ).select_columns(["o_orderkey"])

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def li_rev(t: pa.Table) -> pa.Table:
        us = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = us > REVENUE_CUTOFF_US
        key = t["l_orderkey"].to_numpy(zero_copy_only=False)[keep]
        cents = np.round(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep] * 100
        ).astype(np.int64)
        pct = np.round(
            t["l_discount"].to_numpy(zero_copy_only=False)[keep] * 100
        ).astype(np.int64)
        return pa.table({"o_orderkey": key, "rev": cents * (100 - pct)})

    revenue = runtime.group_agg(
        li.map_batches(li_rev, batch_format="pyarrow", zero_copy_batch=True),
        "o_orderkey", {"revenue_u": ("sum", "rev")},
    )
    agg = runtime.join(revenue, orders_b, "inner", on=("o_orderkey",))
    return agg.sort(
        ["revenue_u", "o_orderkey"], descending=[True, False]
    ).limit(10)


SQL_REVENUE_TOPK = """
SELECT o_orderkey,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS BIGINT)
         AS revenue_u
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '1997-01-01'
  AND l_shipdate  > TIMESTAMP '1997-01-01'
GROUP BY o_orderkey
ORDER BY revenue_u DESC, o_orderkey
LIMIT 10
"""


def q_distinct_users(sf_dir: str):
    """EXACT COUNT(DISTINCT user) per event type at shuffle-bounded cost:
    a distinct (event_type, user_id) group_agg (its per-batch Arrow
    partials keep repeated users inside their batch) → one count per
    event type. Only distinct pairs leave a batch; no per-group user set ever
    assembles on one node (contrast hll_users / distinct_kmv: the sketched
    approximations of the same question)."""
    ev = _read(sf_dir, "events", columns=["event_type", "user_id"])
    distinct = runtime.group_agg(ev, ["event_type", "user_id"])
    return runtime.group_agg(distinct, "event_type",
                             {"n_users": ("count", None)})


SQL_DISTINCT_USERS = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
"""


def q_raster_focal(sf_dir: str):
    """3×3 focal (neighborhood) sum over the customer-point raster at
    BITS_TILE: two-phase count-by-cell, then ops.tiles.focal_sum
    (scatter to codec.neighbors ring → groupby-sum → inner join back to
    occupied cells). The SQL twin is a wraparound self-join on grid
    coordinates — exercising the neighbor semantics (lon wrap, lat clamp)
    relationally."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    pts = spatial.points_with_cells(cust, "c_custkey", BITS_TILE, xy=False)
    raster = tiles.count_by(pts.select_columns(["cell"]), "cell")
    out = tiles.focal_sum(raster, BITS_TILE, cell_col="cell", value_col="n")

    def finalize(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        return pa.table(
            {
                "tile_x": pa.array(x), "tile_y": pa.array(y),
                "n": t["n"], "focal_n": t["focal_sum"], "n_nb": t["n_nb"],
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


SQL_RASTER_FOCAL = f"""
WITH pts AS (
  SELECT {sql_x(sql_lon('c_custkey'), 5)} AS x,
         {sql_y(sql_lat('c_custkey'), 5)} AS y
  FROM customer),
g AS (SELECT x, y, COUNT(*) AS n FROM pts GROUP BY x, y)
SELECT a.x AS tile_x, a.y AS tile_y, CAST(a.n AS BIGINT) AS n,
       CAST(SUM(b.n) AS BIGINT) AS focal_n,
       CAST(COUNT(*) AS BIGINT) AS n_nb
FROM g a JOIN g b
  ON ((b.x - a.x + 32) % 32) IN (0, 1, 31)
 AND b.y BETWEEN a.y - 1 AND a.y + 1
GROUP BY a.x, a.y, a.n
"""


def q_semivariogram(sf_dir: str):
    """Empirical semivariogram of the customer-count raster at BITS_TILE:
    unordered occupied-cell pairs within Chebyshev lag 3, binned by squared
    grid distance d², accumulating integer (nᵢ−nⱼ)² (ops.tiles.variogram —
    half-ring scatter → hash join → per-batch partials; each pair has
    exactly one reporter so no dedup shuffle exists). The SQL twin is a
    bounded self-join of the cell aggregate."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    pts = spatial.points_with_cells(cust, "c_custkey", BITS_TILE, xy=False)
    raster = tiles.count_by(pts.select_columns(["cell"]), "cell")
    return tiles.variogram(raster, BITS_TILE, max_lag=3)


SQL_SEMIVARIOGRAM = f"""
WITH pts AS (
  SELECT {sql_x(sql_lon('c_custkey'), 5)} AS x,
         {sql_y(sql_lat('c_custkey'), 5)} AS y
  FROM customer),
g AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY x, y)
SELECT (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y) AS d2,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM((a.n - b.n) * (a.n - b.n)) AS BIGINT) AS sq_sum
FROM g a JOIN g b
  ON b.x BETWEEN a.x - 3 AND a.x + 3
 AND b.y BETWEEN a.y - 3 AND a.y + 3
 AND (b.x > a.x OR (b.x = a.x AND b.y > a.y))
 AND (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y) <= 9
GROUP BY 1
"""


def q_distinct_kmv(sf_dir: str):
    """KMV distinct-count sketch of orders.o_custkey (k=256): per-batch
    k-smallest distinct splitmix64 hashes, merged once — the exchange is
    O(k × batches). The oracle compares the full SKETCH CONTENT (the k
    minimum hash values), not just an estimate: both sides share the
    bit-exact splitmix64 (ops.sketch)."""
    from georay.ops import sketch as sketch_ops

    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    return sketch_ops.kmv_sketch(orders, "o_custkey", k=256)


SQL_DISTINCT_KMV = f"""
WITH h AS (
  SELECT DISTINCT hu
  FROM {sketch_sql_subquery('(SELECT o_custkey FROM orders)', 'o_custkey')}),
r AS (SELECT hu, ROW_NUMBER() OVER (ORDER BY hu) AS rank FROM h)
SELECT CAST(rank AS BIGINT) AS rank, {sketch_sql_signed('hu')} AS h
FROM r WHERE rank <= 256
"""


def q_quantiles(sf_dir: str):
    """Exact per-group discrete quantiles (p25/p50/p90/p99) of lineitem
    quantity via distributed integer histograms — no sort, the exchange
    moves O(groups × 50 distinct values × batches) rows
    (ops.sketch.grouped_quantiles; the quantile_disc index rule is pinned
    empirically in tests)."""
    from georay.ops import sketch as sketch_ops

    li = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"])

    def to_int(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "qty": pc.cast(t["l_quantity"], pa.int64()),
            }
        )

    ints = li.map_batches(to_int, batch_format="pyarrow", zero_copy_batch=True)
    return sketch_ops.grouped_quantiles(
        ints, "l_returnflag", "qty", qs=(0.25, 0.5, 0.9, 0.99)
    )


SQL_QUANTILES = """
SELECT l_returnflag,
       CAST(quantile_disc(CAST(l_quantity AS BIGINT), 0.25) AS BIGINT) AS p25,
       CAST(quantile_disc(CAST(l_quantity AS BIGINT), 0.5) AS BIGINT) AS p50,
       CAST(quantile_disc(CAST(l_quantity AS BIGINT), 0.9) AS BIGINT) AS p90,
       CAST(quantile_disc(CAST(l_quantity AS BIGINT), 0.99) AS BIGINT) AS p99
FROM lineitem GROUP BY l_returnflag
"""


def q_quantiles_binned(sf_dir: str):
    """Bounded-bin exact quantiles — same result as ``grouped_quantiles``
    via a fixed-width (group, bin) histogram + exact refine of the one
    candidate bin per quantile, so the exchange is O(groups × n_bins ×
    batches) INDEPENDENT of value cardinality (the high-cardinality unit
    test asserts the bound; ops.sketch.grouped_quantiles_binned). Extended
    price is the value column here — ~1M distinct cents at sf1, exactly
    the domain the unbinned histogram can't carry."""
    from georay.ops import sketch as sketch_ops

    li = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "cents": pc.cast(
                    pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    ints = li.map_batches(to_cents, batch_format="pyarrow",
                          zero_copy_batch=True)
    return sketch_ops.grouped_quantiles_binned(
        ints, "l_returnflag", "cents", qs=(0.25, 0.5, 0.9, 0.99),
        n_bins=512,
    )


SQL_QUANTILES_BINNED = """
WITH c AS (
  SELECT l_returnflag,
         CAST(ROUND(l_extendedprice * 100.0) AS BIGINT) AS cents
  FROM lineitem)
SELECT l_returnflag,
       CAST(quantile_disc(cents, 0.25) AS BIGINT) AS p25,
       CAST(quantile_disc(cents, 0.5) AS BIGINT) AS p50,
       CAST(quantile_disc(cents, 0.9) AS BIGINT) AS p90,
       CAST(quantile_disc(cents, 0.99) AS BIGINT) AS p99
FROM c GROUP BY l_returnflag
"""


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: the 20 documents per language whose
    splitmix64(doc_id) sorts first — reproducible across runs and cluster
    sizes. Two-phase local/global top-k per stratum (ops.sketch)."""
    from georay.ops import sketch as sketch_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return sketch_ops.stratified_sample(docs, "lang", "doc_id", k=20)


SQL_STRATIFIED_SAMPLE = f"""
SELECT lang, doc_id, rank FROM (
  SELECT lang, doc_id,
         CAST(ROW_NUMBER() OVER (PARTITION BY lang ORDER BY hu, doc_id)
              AS BIGINT) AS rank
  FROM {sketch_sql_subquery('(SELECT doc_id, lang FROM documents)', 'doc_id')})
WHERE rank <= 20
"""


def q_tile_reconcile(sf_dir: str):
    """Dataset reconciliation (pipeline-validation shape: diff two
    independently-computed spatial aggregates): per-tile order counts
    FULL-OUTER-joined against per-tile event counts, null-filled to 0 —
    tiles covered by only one side surface with an explicit zero instead
    of silently dropping. Two two-phase partial counts (only (cell, n)
    rows shuffle) and ONE outer hash join on the cell key."""
    import pyarrow.compute as pc

    def counted(ds, key_col, out_col):
        def cell(t: pa.Table) -> pa.Table:
            key = t[key_col].to_numpy(zero_copy_only=False)
            lon, lat = spatial.synth_lonlat(key)
            return pa.table(
                {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

        return runtime.group_agg(
            ds.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
            "cell", {out_col: ("count", None)},
        )

    a = counted(_read(sf_dir, "orders", columns=["o_custkey"]),
                "o_custkey", "n_orders")
    b = counted(_read(sf_dir, "events", columns=["user_id"]),
                "user_id", "n_events")

    joined = runtime.join(a, b, "full_outer", on=("cell",))

    def fin(t: pa.Table) -> pa.Table:
        cell = pc.fill_null(t["cell"], 0)  # key is never null in full_outer
        x, y = codec.deinterleave(
            cell.to_numpy(zero_copy_only=False).astype(np.uint64), BITS_TILE)
        no = pc.fill_null(t["n_orders"], 0).to_numpy(zero_copy_only=False)
        ne = pc.fill_null(t["n_events"], 0).to_numpy(zero_copy_only=False)
        return pa.table({
            "x": x.astype(np.int64), "y": y.astype(np.int64),
            "n_orders": no.astype(np.int64), "n_events": ne.astype(np.int64),
            "diff": (no - ne).astype(np.int64),
        })

    return joined.map_batches(fin, batch_format="pyarrow")


SQL_TILE_RECONCILE = f"""
WITH a AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS BIGINT) AS n FROM orders GROUP BY 1, 2),
b AS (SELECT {sql_x(sql_lon('user_id'), 5)} AS x,
             {sql_y(sql_lat('user_id'), 5)} AS y,
             CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1, 2)
SELECT COALESCE(a.x, b.x) AS x, COALESCE(a.y, b.y) AS y,
       COALESCE(a.n, 0) AS n_orders, COALESCE(b.n, 0) AS n_events,
       COALESCE(a.n, 0) - COALESCE(b.n, 0) AS diff
FROM a FULL OUTER JOIN b ON a.x = b.x AND a.y = b.y
"""


def q_tile_mad(sf_dir: str):
    """Robust per-tile dispersion — median + MAD (median absolute
    deviation) of order value, the outlier-resistant alternative to
    mean/stddev: a genuinely TWO-PASS distributed statistic (the second
    pass depends on the first's result). Pass 1: exact per-tile median via
    distributed integer histograms (ops.sketch.grouped_quantiles); the
    tiny median table hash-joins back onto the rows; pass 2: the same
    histogram machinery over |cents − median|. Both passes shuffle only
    (tile, value, count) histogram rows."""
    from georay.ops.sketch import grouped_quantiles

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        cell = codec.encode(lon, lat, BITS_TILE)
        x, y = codec.deinterleave(cell, BITS_TILE)
        tile = np.char.mod("%d", x.astype(np.int64) * 32 + y.astype(np.int64))
        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
        ).to_numpy()
        return pa.table({"tile": pa.array(tile.tolist(), pa.string()),
                         "cents": pa.array(cents)})

    prepped = orders.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # consumed twice: median pass + the join back

    med = grouped_quantiles(prepped, "tile", "cents", qs=(0.5,))

    def as_med(t: pa.Table) -> pa.Table:
        return t.rename_columns(["tile", "med"])

    med = med.map_batches(as_med, batch_format="pyarrow")

    joined = runtime.join(prepped, med, "inner", on=("tile",))

    def dev(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False)
        m = t["med"].to_numpy(zero_copy_only=False)
        return pa.table({"tile": t["tile"], "dev": np.abs(c - m)})

    mad = grouped_quantiles(
        joined.map_batches(dev, batch_format="pyarrow", zero_copy_batch=True),
        "tile", "dev", qs=(0.5,),
    )

    def as_mad(t: pa.Table) -> pa.Table:
        return t.rename_columns(["tile", "mad"])

    mad = mad.map_batches(as_mad, batch_format="pyarrow")
    return runtime.join(med, mad, "inner", on=("tile",))


SQL_TILE_MAD = f"""
WITH o AS (SELECT CAST({sql_x(sql_lon('o_custkey'), 5)} * 32
                       + {sql_y(sql_lat('o_custkey'), 5)} AS VARCHAR) AS tile,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders),
m AS (SELECT tile, CAST(quantile_disc(cents, 0.5) AS BIGINT) AS med
      FROM o GROUP BY tile),
d AS (SELECT o.tile, m.med, ABS(o.cents - m.med) AS dev
      FROM o JOIN m USING (tile))
SELECT tile, CAST(MAX(med) AS BIGINT) AS med,
       CAST(quantile_disc(dev, 0.5) AS BIGINT) AS mad
FROM d GROUP BY tile
"""


def q_mix_sources(sf_dir: str):
    """Training-data mixture weighting (the LLM corpus-mixing shape: each
    source gets a sampling weight; weights < 1 thin deterministically,
    weights > 1 up-sample by emitting copies): source ``srcN`` keeps a doc
    iff ``splitmix64(doc_id) % 4 < N % 4 + 1`` (rates 0.25/0.50/0.75/1.0)
    and emits 2 copies when ``N % 5 == 0`` (weight 2·rate). Stateless,
    zero-shuffle, reproducible across runs and cluster sizes — the mixture
    is a pure function of (doc_id, source), never of block boundaries."""
    from georay.ops.sketch import splitmix64

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def mix(t: pa.Table) -> pa.Table:
        import pandas as pd

        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        src = t["source"].to_pylist()
        sn = pd.Series(src).str.slice(3).astype(np.int64).to_numpy()
        hu = splitmix64(doc.astype(np.uint64))
        keep = (hu % np.uint64(4)).astype(np.int64) < (sn % 4 + 1)
        doc, sn = doc[keep], sn[keep]
        src_arr = pa.array(src).filter(pa.array(keep))
        nc = np.where(sn % 5 == 0, 2, 1).astype(np.int64)
        idx = np.repeat(np.arange(doc.size), nc)
        offs = np.concatenate([[0], np.cumsum(nc)])[:-1]
        copy = np.arange(int(nc.sum()), dtype=np.int64) - np.repeat(offs, nc)
        return pa.table({
            "doc_id": doc[idx],
            "source": src_arr.take(pa.array(idx)),
            "copy": copy,
        })

    return docs.map_batches(mix, batch_format="pyarrow", zero_copy_batch=True)


SQL_MIX_SOURCES = f"""
WITH h AS (SELECT doc_id, source, hu FROM
  {sketch_sql_subquery('(SELECT doc_id, source FROM documents)', 'doc_id')}),
p AS (SELECT doc_id, source, CAST(SUBSTR(source, 4) AS BIGINT) AS sn, hu
      FROM h),
k AS (SELECT doc_id, source, CASE WHEN sn % 5 = 0 THEN 2 ELSE 1 END AS nc
      FROM p WHERE CAST(hu % 4 AS BIGINT) < sn % 4 + 1)
SELECT doc_id, source, CAST(c AS BIGINT) AS copy
FROM k, UNNEST(range(0, nc)) t(c)
"""


def q_top_customers(sf_dir: str):
    """Global sort + limit (distributed range-partitioned sort): top 50
    customers by account balance, deterministic tie-break on key."""
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])
    top = cust.sort(["c_acctbal", "c_custkey"], descending=[True, False]).limit(50)

    def fin(t: pa.Table) -> pa.Table:
        cents = np.round(
            t["c_acctbal"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({"c_custkey": t["c_custkey"], "acctbal_cents": cents})

    return top.map_batches(fin, batch_format="pyarrow")


SQL_TOP_CUSTOMERS = """
SELECT c_custkey, CAST(ROUND(c_acctbal * 100) AS BIGINT) AS acctbal_cents
FROM customer ORDER BY c_acctbal DESC, c_custkey LIMIT 50
"""


def q_customers_no_orders(sf_dir: str):
    """Anti join: customers with no URGENT orders — the urgent-order key set
    is broadcast once, each batch filters with a sorted-array membership
    test (Bloom-filter shape at the 10^12 scale)."""
    import pyarrow.compute as pc

    orders = _read_table(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    keys = orders.filter(pc.equal(orders["o_orderpriority"], "1-URGENT"))[
        "o_custkey"
    ].to_numpy()
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    return join_ops.broadcast_semi_join(cust, keys, on="c_custkey", anti=True)


SQL_CUSTOMERS_NO_ORDERS = """
SELECT c_custkey FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderpriority = '1-URGENT')
"""


def q_customers_no_orders_bloom(sf_dir: str):
    """Same anti join via the 10^10+-key scale path: the urgent-order key
    set stays a DATASET (never collected to the driver), a fixed-size Bloom
    bitset is built distributed and broadcast, definite misses resolve
    batch-locally, and the Bloom-hit candidate band is verified exactly with
    a hash join. ``n_bits`` is deliberately small (64 Kib bitset → real
    false positives among sf0.01's ~10k probe keys) so the exact-verify
    band is the live path — the result must still match the sorted-array
    oracle bit-for-bit."""
    import pyarrow.compute as pc

    def urgent(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["o_orderpriority"], "1-URGENT")
        return pa.table({"o_custkey": t["o_custkey"].filter(keep)})

    orders = _read(
        sf_dir, "orders", columns=["o_custkey", "o_orderpriority"]
    ).map_batches(urgent, batch_format="pyarrow")
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    return join_ops.bloom_semi_join(
        cust, orders, on="c_custkey", right_on="o_custkey", anti=True,
        n_bits=1 << 16, n_hashes=4,
        num_partitions=4,  # sized to sf0.01's verify band; 100 TB uses more
    )


def q_images_hot_salted(sf_dir: str):
    """Skew-hardened tile counts: detect heavy cells (the 3 dense urban
    cells of the fixture), salt them into sub-keys, run the skewed groupby
    on the salted key, unsalt and re-aggregate. Result must equal the plain
    tile-count oracle exactly (salting is physical, not semantic)."""
    from georay import fixtures

    ds = fixtures.read_images(sf_dir, columns=["lon", "lat"])

    def to_cell(t: pa.Table) -> pa.Table:
        cell = codec.encode(
            t["lon"].to_numpy(zero_copy_only=False),
            t["lat"].to_numpy(zero_copy_only=False),
            BITS_TILE,
        )
        return pa.table({"cell": cell.astype(np.int64)})

    cells_ds = ds.map_batches(to_cell, batch_format="pyarrow", zero_copy_batch=True)
    n_total = fixtures.n_images_for(sf_dir)
    hot = runtime.detect_heavy_keys(cells_ds, "cell", threshold=max(64, n_total // 100))
    n_salt = 16
    salted = runtime.salt_hot_keys(cells_ds, "cell", hot, n_salt=n_salt)

    # unsalt per row, then one count on the UNSALTED cell: group_agg's
    # per-batch partials collapse each batch to one row per cell
    def unsalt(t: pa.Table) -> pa.Table:
        salted_key = t["cell_salted"].to_numpy(zero_copy_only=False)
        return pa.table({"cell": salted_key // n_salt})

    agg = runtime.group_agg(
        salted.map_batches(unsalt, batch_format="pyarrow", zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    )

    def finalize(t: pa.Table) -> pa.Table:
        tile = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(tile, BITS_TILE)
        return pa.table({"tile_x": x, "tile_y": y, "n": t["n"]})

    return agg.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------------------------------- inverted index

IDX_BOX = (-50.0, -30.0, 60.0, 45.0)
BITS_IDX = 16  # 256 x 256 grid


def q_index_query_box(sf_dir: str):
    """Build (cached) the cell-partitioned inverted index over customer
    points, then ``query_box`` — partition-pruned read + exact cell refine
    (reference GeoHash.query_box parity, SURVEY.md X6). The SQL twin filters
    on the cover's grid-coordinate rectangle."""
    import os

    from georay.fixtures import CACHE_ROOT
    from georay.index import CellIndex

    root = os.path.join(
        CACHE_ROOT, f"index_customer_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    if not os.path.exists(os.path.join(root, "_index.json")):
        cust = _read(sf_dir, "customer", columns=["c_custkey"])
        pts = spatial.points_with_cells(cust, "c_custkey", BITS_IDX, xy=False)
        CellIndex.build(pts, root, bits=BITS_IDX, prefix_bits=6)
    idx = CellIndex(root)
    out = idx.query_box(IDX_BOX, columns=["c_custkey", "cell", "_prefix"])
    return out.select_columns(["c_custkey"])


SQL_INDEX_QUERY_BOX = f"""
WITH c AS ({_sql_point_cte('customer', 'c_custkey', BITS_IDX)})
SELECT c_custkey FROM c
WHERE x >= {sql_x(str(IDX_BOX[0]), 8)} AND x <= {sql_x(str(IDX_BOX[2]), 8)}
  AND y >= {sql_y(str(IDX_BOX[1]), 8)} AND y <= {sql_y(str(IDX_BOX[3]), 8)}
"""


def q_index_lifecycle(sf_dir: str):
    """Full index lifecycle under oracle check (X2 update / X3
    extend+compact / X4 scan in one pipeline): build the cell index over
    the ODD customer keys, ``extend`` it with the even half (the
    reference's update path), ``compact`` the doubled partition files,
    then scan and two-phase-count per cell. The oracle is the plain
    per-cell count over ALL customers — any row lost or duplicated by
    extend/compact breaks the match. A fresh root per call: the lifecycle
    itself is the unit under test, never a cache hit."""
    import os
    import shutil
    import tempfile

    from georay.index import CellIndex

    root = os.path.join(
        tempfile.gettempdir(),
        f"georay_idx_lifecycle_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    shutil.rmtree(root, ignore_errors=True)

    cust = _read(sf_dir, "customer", columns=["c_custkey"])

    def half(rem: int):
        def fn(t: pa.Table) -> pa.Table:
            k = t["c_custkey"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(k % 2 == rem))
        return fn

    odd = cust.map_batches(half(1), batch_format="pyarrow",
                           zero_copy_batch=True)
    even = cust.map_batches(half(0), batch_format="pyarrow",
                            zero_copy_batch=True)

    CellIndex.build(
        spatial.points_with_cells(odd, "c_custkey", BITS_IDX, xy=False),
        root, bits=BITS_IDX, prefix_bits=6,
    )
    idx = CellIndex(root)
    idx.extend(
        spatial.points_with_cells(even, "c_custkey", BITS_IDX, xy=False))
    idx.compact()

    def xy_key(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_IDX)
        return pa.table(
            {"k": (x.astype(np.int64) << np.int64(32)) | y.astype(np.int64)})

    agg = runtime.group_agg(
        idx.scan(columns=["cell"])
        .map_batches(xy_key, batch_format="pyarrow", zero_copy_batch=True),
        "k", {"n": ("count", None)},
    )

    def fin(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        return pa.table({"x": k >> np.int64(32),
                         "y": k & np.int64(0xFFFFFFFF), "n": t["n"]})

    return agg.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


SQL_INDEX_LIFECYCLE = f"""
WITH c AS ({_sql_point_cte('customer', 'c_custkey', BITS_IDX)})
SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM c GROUP BY x, y
"""


IDX_PROBE_KEYS = (3, 7, 11, 19)


def q_index_query_cells(sf_dir: str):
    """X5 parity oracle: ``CellIndex.query_cells`` with ring-1 neighbor
    expansion (the reference's border-tolerance query) over the cached
    customer index — partition-pruned read + exact cell refine. The SQL
    twin joins customers to the probe cells on wrapped-longitude /
    clamped-latitude Chebyshev distance ≤ 1 (cells.k_ring's grid
    semantics, cells.py:42)."""
    import os

    from georay.fixtures import CACHE_ROOT
    from georay.index import CellIndex

    root = os.path.join(
        CACHE_ROOT, f"index_customer_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    if not os.path.exists(os.path.join(root, "_index.json")):
        cust = _read(sf_dir, "customer", columns=["c_custkey"])
        pts = spatial.points_with_cells(cust, "c_custkey", BITS_IDX, xy=False)
        CellIndex.build(pts, root, bits=BITS_IDX, prefix_bits=6)
    idx = CellIndex(root)
    keys = np.array(IDX_PROBE_KEYS, dtype=np.int64)
    lon, lat = spatial.synth_lonlat(keys)
    probes = codec.encode(lon, lat, BITS_IDX)
    out = idx.query_cells(probes, columns=["c_custkey"],
                          expand_neighbors=True, ring=1)
    if out is None:
        import pandas as pd

        return pd.DataFrame({"c_custkey": np.empty(0, dtype=np.int64)})
    return out.select_columns(["c_custkey"])


SQL_INDEX_QUERY_CELLS = f"""
WITH c AS ({_sql_point_cte('customer', 'c_custkey', BITS_IDX)}),
p AS (SELECT {sql_x(sql_lon('k'), 8)} AS px, {sql_y(sql_lat('k'), 8)} AS py
      FROM (SELECT UNNEST({list(IDX_PROBE_KEYS)}) AS k))
SELECT DISTINCT c_custkey FROM c JOIN p
  ON (((x - px) % 256 + 256) % 256) IN (0, 1, 255)
 AND ABS(y - py) <= 1
"""


# -------------------------------------------------------------------- flagship


def flagship(sf_dir: str, n_images: int | None = None):
    """The north-star pipeline end-to-end: image table → decode + invariant
    enforcement → drop failed rows → ray-cast PIP spatial join against the
    tile polygon set (broadcast index) → per-tile counts (two-phase
    aggregation). Decode through the partial aggregate is one fused stage of
    stateless tasks. Returns the per-tile count Dataset.

    ``n_images`` overrides the sf-derived table size (scaling benchmarks)."""
    from georay import fixtures
    from georay.ops import images as img_ops
    from georay.ops import pip as pip_ops

    cols = ["image_id", "fmt", "bytes", "caption", "lon", "lat"]
    if n_images is not None:
        ds = fixtures.read_images_n(n_images, columns=cols)
    else:
        ds = fixtures.read_images(sf_dir, columns=cols)
    checked = img_ops.decode_invariant(ds)

    def keep_ok(t: pa.Table) -> pa.Table:
        return t.filter(t["ok"]).select(["image_id", "lon", "lat"])

    ok = checked.map_batches(keep_ok, batch_format="pyarrow")
    ids, _zooms, rings = fixtures.make_tiles()
    pairs = pip_ops.pip_assign(
        ok, ids, rings, bits=10, keep_cols=["image_id"], poly_id_col="tile_id"
    )
    return tiles.count_by(pairs, "tile_id")


def flagship_resumable(sf_dir: str, out_dir: str, n_images: int | None = None,
                       lineage: str | None = None):
    """Flagship with INPUT-side checkpointing: each row carries its source
    parquet file (``_src``), output is partitioned by it, and a rerun skips
    committed input files BEFORE the read — no decode, PIP, or shuffle for
    finished shards (the strong form of "resumable from per-partition
    checkpoints with lineage", BASELINE.json north_rule).

    Returns the manifest dict (per-shard rows/bytes/seconds/lineage)."""
    import glob
    import os

    import ray.data

    from georay import fixtures, runtime
    from georay.ops import images as img_ops
    from georay.ops import pip as pip_ops

    if n_images is not None:
        path = fixtures.ensure_images_table_n(n_images)
    else:
        path = fixtures.ensure_images_table(sf_dir)
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    todo = runtime.files_to_process(files, out_dir)
    if not todo:
        return runtime.load_manifest(out_dir)

    cols = ["image_id", "fmt", "bytes", "caption", "lon", "lat"]

    def readf(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        tabs = []
        for p in t["path"].to_pylist():
            tab = pq.read_table(p, columns=cols)
            tabs.append(
                tab.append_column(
                    "_src", pa.array([os.path.basename(p)] * tab.num_rows)
                )
            )
        return pa.concat_tables(tabs)

    ds = (
        ray.data.from_arrow(pa.table({"path": todo}))
        .repartition(len(todo))
        .map_batches(readf, batch_format="pyarrow", batch_size=1,
                     num_cpus=fixtures.READ_NUM_CPUS)
    )
    checked = img_ops.decode_invariant(ds)

    def keep_ok(t: pa.Table) -> pa.Table:
        return t.filter(t["ok"]).select(["image_id", "lon", "lat", "_src"])

    ok = checked.map_batches(keep_ok, batch_format="pyarrow")
    ids, _zooms, rings = fixtures.make_tiles()
    pairs = pip_ops.pip_assign(
        ok, ids, rings, bits=10, keep_cols=["image_id", "_src"],
        poly_id_col="tile_id",
    )
    return runtime.write_partitioned(
        pairs,
        out_dir,
        "_src",
        lineage=lineage or f"flagship-resumable {sf_dir}",
        # shards whose rows all fail the invariant (or hit no polygon) emit
        # zero pairs; commit them too or they re-process on every rerun
        expected_partitions=[os.path.basename(f) for f in todo],
    )


# ------------------------------------------- round-3 additions: spans / rank /
# HLL / heavy hitters


def q_cooccur_topk(sf_dir: str):
    """Top-50 co-occurring token pairs by lift = n_ab·N/(n_a·n_b) — the
    PMI ranking without the log (monotone). Per-doc pair expansion is ONE
    segmented triangle decode per batch (ops.text.cooccur_topk); the lift
    is a single double expression mirrored verbatim in the SQL, and the
    (w_a, w_b) tie-break totalizes the order across equal lifts."""
    from georay.ops.text import cooccur_topk

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return cooccur_topk(docs, k=50)


SQL_COOCCUR = """
WITH toks AS (SELECT DISTINCT doc_id,
                     unnest(regexp_extract_all(lower(text), '[\\w'']+')) AS w
              FROM documents),
df AS (SELECT w, COUNT(*) AS d FROM toks GROUP BY w),
pc AS (SELECT a.w AS w_a, b.w AS w_b, COUNT(*) AS n_ab
       FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND a.w < b.w
       GROUP BY 1, 2)
SELECT w_a, w_b, CAST(n_ab AS BIGINT) AS n_ab,
       CAST(da.d AS BIGINT) AS n_a, CAST(db.d AS BIGINT) AS n_b,
       CAST(n_ab AS DOUBLE) * (SELECT COUNT(*) FROM documents)
         / (da.d * db.d) AS lift
FROM pc JOIN df da ON da.w = w_a JOIN df db ON db.w = w_b
ORDER BY lift DESC, w_a, w_b LIMIT 50
"""


def q_setsim_join(sf_dir: str):
    """EXACT token-set-similarity self-join (Jaccard ≥ 9/10) via prefix
    filtering (ops.setsim — the AllPairs/PPJoin shape): rarest-first token
    order, per-doc prefix inverted index, candidate buckets, exact integer
    verify. ``max_bucket=None``: the harness query keeps strict all-pairs
    exactness (the cap is the documented scale knob). The oracle is the
    semantic spec — a plain token self-join with the same integer
    threshold."""
    from georay.ops import setsim

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return setsim.setsim_join(docs, num=9, den=10, max_bucket=None)


SQL_SETSIM = """
WITH toks AS (SELECT DISTINCT doc_id,
                     unnest(regexp_extract_all(lower(text), '[\\w'']+')) AS w
              FROM documents),
sz AS (SELECT doc_id, COUNT(*) AS n FROM toks GROUP BY doc_id),
inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
          FROM toks a JOIN toks b ON a.w = b.w AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT id_a, id_b, CAST(i AS BIGINT) AS n_inter,
       CAST(sa.n + sb.n - i AS BIGINT) AS n_union,
       CAST(i AS DOUBLE) / (sa.n + sb.n - i) AS jaccard
FROM inter JOIN sz sa ON sa.doc_id = id_a JOIN sz sb ON sb.doc_id = id_b
WHERE i * 10 >= 9 * (sa.n + sb.n - i)
"""


def q_dup_spans(sf_dir: str):
    """Substring-level duplicate-span detection: per document, how many of
    its 8-token windows occur ≥2× in the whole corpus (only 64-bit gram
    hashes shuffle — see ops.text.ngram_span_stats)."""
    from georay.ops import text as text_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return text_ops.ngram_span_stats(docs, k=8)


SQL_DUP_SPANS = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
grams AS (
  SELECT doc_id,
         array_to_string(ts[CAST(i AS BIGINT):CAST(i + 7 AS BIGINT)], ' ') AS g
  FROM toks, UNNEST(range(1, CAST(len(ts) AS BIGINT) - 6)) AS t(i)
),
c AS (SELECT g, COUNT(*) AS n_occ FROM grams GROUP BY g)
SELECT doc_id, COUNT(*) AS n_spans,
       CAST(COUNT(*) FILTER (n_occ >= 2) AS BIGINT) AS n_dup_spans
FROM grams JOIN c USING (g)
GROUP BY doc_id
"""


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3 appendix-C shape): train docs =
    ``doc_id % 10 != 0``, benchmark = the rest; per train doc, its 8-token
    span count and how many spans appear ANYWHERE in the benchmark. The
    benchmark gram set is hash-joined, never broadcast
    (ops.text.decontaminate)."""
    from georay.ops import text as text_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def split(keep_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            d = t["doc_id"].to_numpy(zero_copy_only=False)
            m = (d % 10 == 0) if keep_bench else (d % 10 != 0)
            return t.filter(pa.array(m))
        return fn

    train = docs.map_batches(split(False), batch_format="pyarrow",
                             zero_copy_batch=True)
    bench = docs.map_batches(split(True), batch_format="pyarrow",
                             zero_copy_batch=True)
    return text_ops.decontaminate(train, bench, k=8)


SQL_DECONTAMINATE = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
grams AS (
  SELECT doc_id,
         array_to_string(ts[CAST(i AS BIGINT):CAST(i + 7 AS BIGINT)], ' ') AS g
  FROM toks, UNNEST(range(1, CAST(len(ts) AS BIGINT) - 6)) AS t(i)
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 10 = 0),
train AS (SELECT doc_id, g FROM grams WHERE doc_id % 10 <> 0)
SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
       CAST(COUNT(b.g) AS BIGINT) AS n_contam
FROM train t LEFT JOIN bench b USING (g)
GROUP BY t.doc_id
"""


def q_top_orders_monthly(sf_dir: str):
    """Top-5 orders by price per calendar month — the ROW_NUMBER() <= k
    shape via two-phase grouped top-k (ops.rank.grouped_topk): only per-
    batch survivors shuffle, never all rows. Integer cents (same ROUND
    idiom as top_customers) + orderkey tie-break = total order."""
    import pandas as pd

    from georay.ops.rank import grouped_topk

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_totalprice"]
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"]
        return pd.DataFrame(
            {
                "month": (d.dt.year * 12 + d.dt.month).to_numpy(np.int64),
                "o_orderkey": df["o_orderkey"].to_numpy(np.int64),
                "cents": np.round(
                    df["o_totalprice"].to_numpy() * 100
                ).astype(np.int64),
            }
        )

    prepped = orders.map_batches(prep, batch_format="pandas")
    return grouped_topk(
        prepped, ["month"], ["cents", "o_orderkey"], [False, True], k=5
    )


SQL_TOP_ORDERS_MONTHLY = """
SELECT month, o_orderkey, cents, rank FROM (
  SELECT CAST(year(o_orderdate) * 12 + month(o_orderdate) AS BIGINT) AS month,
         o_orderkey,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents,
         ROW_NUMBER() OVER (
           PARTITION BY year(o_orderdate) * 12 + month(o_orderdate)
           ORDER BY CAST(ROUND(o_totalprice * 100) AS BIGINT) DESC, o_orderkey
         ) AS rank
  FROM orders) WHERE rank <= 5
"""


def q_hll_users(sf_dir: str):
    """HyperLogLog distinct-user sketch — the oracle compares REGISTER
    CONTENTS (register, max rank), not the float estimate, so the whole
    distributed max-merge is bit-checked."""
    from georay.ops import sketch

    ev = _read(sf_dir, "events", columns=["user_id"])
    return sketch.hll_registers(ev, "user_id", p=8)


_M56 = 1 << 56

SQL_HLL_USERS = f"""
WITH h AS (SELECT hu FROM
           {sketch_sql_subquery('(SELECT user_id FROM events)', 'user_id')}),
r AS (SELECT CAST(hu >> 56 AS BIGINT) AS register,
             hu % CAST({_M56} AS UBIGINT) AS w FROM h)
SELECT register,
       MAX(CASE WHEN w = 0 THEN 57
           ELSE CAST(bit_count(xor(w,
                CAST((CAST(w AS HUGEINT) + {_M56 - 1}) % {_M56} AS UBIGINT)
           )) AS BIGINT) END) AS max_rank
FROM r GROUP BY register
"""


def q_heavy_cells(sf_dir: str):
    """EXACT heavy-hitter cells (>1% of all image captures — catches the 3
    hot urban cells at ~3.3% each, background tiles are ~0.1%): Misra–Gries
    candidate sketch pass + exact recount of candidates only, so no
    O(distinct-cells) state ever assembles (ops.sketch.heavy_hitters)."""
    from georay import fixtures
    from georay.ops import sketch

    ds = fixtures.read_images(sf_dir, columns=["lon", "lat"])

    def to_cell(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        cell = codec.encode(lon, lat, BITS_TILE)
        return pa.table({"cell": cell.astype(np.int64)})

    cells_ds = ds.map_batches(to_cell, batch_format="pyarrow",
                              zero_copy_batch=True)
    hh = sketch.heavy_hitters(cells_ds, "cell", num=1, den=100, sketch_k=128)

    def finalize(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        return pa.table({"tile_x": x, "tile_y": y, "n": t["n"]})

    return hh.map_batches(finalize, batch_format="pyarrow")


def sql_heavy_cells(n: int) -> str:
    return f"""
WITH p AS ({_sql_img_coords(n)}),
c AS (SELECT {sql_x('lon', 5)} AS tile_x, {sql_y('lat', 5)} AS tile_y,
             COUNT(*) AS n
      FROM p GROUP BY 1, 2)
SELECT tile_x, tile_y, n FROM c WHERE n * 100 > {n}
"""


# ----------------------------------------------------------------- BM25 topk

BM25_TERMS = ["spark", "window", "merge", "vector"]
BM25_K = 10


def q_bm25_topk(sf_dir: str):
    """Index-free BM25 retrieval: global top-10 documents for a fixed
    4-term query. One tokenize pass emits O(docs × 4) integers (dl + per
    query-term tf), corpus scalars reduce to 6 driver ints, scoring is a
    second map with a rational idf (`(N-df+0.5)/(df+0.5)+1`, Lucene's idf
    without the ln — monotone per term, so a pure {+,*,/} float64 tree the
    SQL twin replays bit-exactly), per-batch local top-k, tiny global
    sort+limit."""
    from georay.ops import text as text_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return text_ops.bm25_topk(docs, BM25_TERMS, k=BM25_K).select_columns(
        ["doc_id", "score", "rank"]
    )


def sql_bm25(terms: list[str], k: int, k1: float = 1.2, b: float = 0.75) -> str:
    """SQL twin of :func:`georay.ops.text.bm25_topk`, same fixed term order.

    Every float constant is computed in Python and embedded via ``repr``
    (round-trips exactly), and every float op appears in the same order as
    the numpy kernel, so the score column is IEEE-identical."""
    k1f, bf = float(k1), float(b)
    omb, k1p1 = 1.0 - bf, k1f + 1.0
    tf_piv = ",\n    ".join(
        f"COALESCE(MAX(CASE WHEN w = '{t}' THEN tf END), 0) AS tf{j}"
        for j, t in enumerate(terms)
    )
    df_sel = ",\n    ".join(
        f"CAST(SUM(CASE WHEN tf{j} > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df{j}"
        for j in range(len(terms))
    )
    in_list = ", ".join(f"'{t}'" for t in terms)
    base = (f"({k1f!r} * ({omb!r} + {bf!r} * (CAST(dl AS DOUBLE) / "
            f"(CAST(total_dl AS DOUBLE) / CAST(n AS DOUBLE)))))")
    s_terms = [
        f"((((CAST(n AS DOUBLE) - CAST(df{j} AS DOUBLE)) + 0.5)"
        f" / (CAST(df{j} AS DOUBLE) + 0.5) + 1.0)"
        f" * ((CAST(tf{j} AS DOUBLE) * {k1p1!r})"
        f" / (CAST(tf{j} AS DOUBLE) + {base})))"
        for j in range(len(terms))
    ]
    score = " + ".join(s_terms)  # left-assoc: same order as the numpy loop
    return rf"""
WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w
              FROM documents),
dlen AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id),
alldocs AS (SELECT d.doc_id, COALESCE(dlen.dl, 0) AS dl
            FROM documents d LEFT JOIN dlen USING (doc_id)),
tf AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS tf
       FROM toks WHERE w IN ({in_list}) GROUP BY doc_id, w),
wide AS (SELECT a.doc_id, a.dl,
    {tf_piv}
  FROM alldocs a LEFT JOIN tf USING (doc_id) GROUP BY a.doc_id, a.dl),
st AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(dl) AS BIGINT) AS total_dl,
    {df_sel}
  FROM wide),
scored AS (SELECT doc_id, {score} AS score FROM wide CROSS JOIN st)
SELECT doc_id, score,
       CAST(ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank
FROM scored QUALIFY rank <= {k}
"""


SQL_BM25 = sql_bm25(BM25_TERMS, BM25_K)


# ------------------------------------------------------------ hotspot (Gi*)


def q_hotspot_gi(sf_dir: str):
    """Getis-Ord Gi* hot-spot z-score per occupied 32×32 tile over the
    lineitem synthetic capture points (queen 3×3 neighborhood over occupied
    cells; integer-exact variance/slack numerators so the float tree is
    SQL-replayable — see ops.tiles.hotspot_gi)."""
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])

    def keyed(t: pa.Table) -> pa.Table:
        key = (
            t["l_orderkey"].to_numpy(zero_copy_only=False) * 8
            + t["l_linenumber"].to_numpy(zero_copy_only=False)
        )
        lon, lat = spatial.synth_lonlat(key)
        cell = codec.encode(lon, lat, BITS_TILE)
        return pa.table({"cell": cell.astype(np.int64)})

    keyed_ds = li.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return tiles.hotspot_gi(keyed_ds, BITS_TILE)


SQL_HOTSPOT_GI = f"""
WITH p AS (SELECT {sql_lon('l_orderkey * 8 + l_linenumber')} AS lon,
                  {sql_lat('l_orderkey * 8 + l_linenumber')} AS lat FROM lineitem),
c AS (SELECT {sql_x('lon', 5)} AS x, {sql_y('lat', 5)} AS y,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM p GROUP BY 1, 2),
st AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
              CAST(SUM(n) AS BIGINT) AS sum_x,
              CAST(SUM(n * n) AS BIGINT) AS sum_x2 FROM c),
nb AS (SELECT a.x, a.y, a.n,
              CAST(COUNT(*) AS BIGINT) AS w, CAST(SUM(b.n) AS BIGINT) AS s
       FROM c a JOIN c b
         ON b.x BETWEEN a.x - 1 AND a.x + 1
        AND b.y BETWEEN a.y - 1 AND a.y + 1
       GROUP BY a.x, a.y, a.n)
SELECT x AS tile_x, y AS tile_y, n,
  CASE WHEN k * w - w * w = 0 OR k * sum_x2 - sum_x * sum_x = 0 THEN 0.0
  ELSE (CAST(s AS DOUBLE)
        - (CAST(sum_x AS DOUBLE) / CAST(k AS DOUBLE)) * CAST(w AS DOUBLE))
       / ((SQRT(CAST(k * sum_x2 - sum_x * sum_x AS DOUBLE)) / CAST(k AS DOUBLE))
          * SQRT(CAST(k * w - w * w AS DOUBLE) / (CAST(k AS DOUBLE) - 1.0)))
  END AS gi_z
FROM nb CROSS JOIN st
"""


# -------------------------------------------------------------------- skyline


def q_skyline_parts(sf_dir: str):
    """Pareto frontier of parts — cheapest-for-their-size: minimize
    p_retailprice, maximize p_size. Exact comparisons only (no float
    arithmetic), pruned per block then through a 2-level reduce; only
    frontier candidates ever shuffle (ops.skyline)."""
    from georay.ops import skyline as sky

    parts = _read(sf_dir, "part",
                  columns=["p_partkey", "p_retailprice", "p_size"])
    return sky.skyline(parts, "p_retailprice", "p_size").select_columns(
        ["p_partkey", "p_retailprice", "p_size"]
    )


SQL_SKYLINE = """
SELECT p_partkey, p_retailprice, p_size FROM part p
WHERE NOT EXISTS (
  SELECT 1 FROM part q
  WHERE q.p_retailprice <= p.p_retailprice AND q.p_size >= p.p_size
    AND (q.p_retailprice < p.p_retailprice OR q.p_size > p.p_size))
"""


# ------------------------------------------------------------------ pagerank

PAGERANK_ITERS = 3
PAGERANK_K = 20


def q_pagerank(sf_dir: str):
    """Integer fixed-point PageRank (3 iterations, d=0.85) over the
    supplier→part bipartite graph of distinct lineitem edges (node ids:
    2·suppkey / 2·partkey+1). Exact int64 arithmetic end to end — see
    ops.pagerank — so the unrolled SQL twin is bit-equal. Top-20 by rank."""
    from georay.ops import pagerank as pr
    from georay.runtime import table_from_pandas

    li = _read(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    def node_ids(t: pa.Table) -> pa.Table:
        s = t["l_suppkey"].to_numpy(zero_copy_only=False) * 2
        p = t["l_partkey"].to_numpy(zero_copy_only=False) * 2 + 1
        return pa.table({"src": s, "dst": p})

    edges_in = li.map_batches(node_ids, batch_format="pyarrow",
                              zero_copy_batch=True)
    ranks = pr.pagerank(edges_in, "src", "dst", iterations=PAGERANK_ITERS)
    top = ranks.select_columns(["node", "r"]).sort(
        ["r", "node"], descending=[True, False]
    ).limit(PAGERANK_K)

    def add_rank(df):
        df = df.sort_values(["r", "node"],
                            ascending=[False, True]).reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return table_from_pandas(df.rename(columns={"r": "pr"}))

    return top.repartition(1).map_batches(add_rank, batch_format="pandas")


def sql_pagerank(iterations: int = PAGERANK_ITERS, k: int = PAGERANK_K) -> str:
    from georay.ops.pagerank import SCALE

    parts = [f"""
WITH edges AS (SELECT DISTINCT l_suppkey * 2 AS src, l_partkey * 2 + 1 AS dst
               FROM lineitem),
outdeg AS (
  SELECT node, CAST(SUM(c) AS BIGINT) AS outd FROM (
    SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS c FROM edges GROUP BY src
    UNION ALL
    SELECT DISTINCT dst AS node, CAST(0 AS BIGINT) AS c FROM edges
  ) GROUP BY node),
st AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM outdeg),
r0 AS (SELECT node, outd, CAST({SCALE} // n AS BIGINT) AS r
       FROM outdeg CROSS JOIN st)"""]
    for i in range(1, iterations + 1):
        parts.append(f""",
d{i} AS (SELECT CAST(COALESCE(SUM(r), 0) AS BIGINT) AS dang
         FROM r{i - 1} WHERE outd = 0),
in{i} AS (SELECT e.dst AS node, CAST(SUM(p.r // p.outd) AS BIGINT) AS ins
          FROM edges e JOIN r{i - 1} p ON p.node = e.src GROUP BY e.dst),
r{i} AS (SELECT o.node, o.outd,
           CAST((15 * ({SCALE} // n)) // 100
                + (85 * (COALESCE(i.ins, 0) + dang // n)) // 100 AS BIGINT) AS r
         FROM outdeg o LEFT JOIN in{i} i ON i.node = o.node
         CROSS JOIN st CROSS JOIN d{i})""")
    parts.append(f"""
SELECT node, r AS pr,
       CAST(ROW_NUMBER() OVER (ORDER BY r DESC, node) AS BIGINT) AS rank
FROM r{iterations} QUALIFY rank <= {k}
""")
    return "".join(parts)


SQL_PAGERANK = sql_pagerank()


# ----------------------------------------------------------- weighted sample

WSAMPLE_K = 100


def q_weighted_sample(sf_dir: str):
    """Sequential Poisson weighted sample of 100 orders, inclusion ∝
    o_totalprice: deterministic hash-derived uniforms, priority = u/w, k
    smallest win (ops.sketch.weighted_sample — reproducible across cluster
    sizes, only O(k × batches) rows shuffle)."""
    from georay.ops import sketch as sketch_ops

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return sketch_ops.weighted_sample(
        orders, "o_orderkey", "o_totalprice", k=WSAMPLE_K
    ).select_columns(["o_orderkey", "priority", "rank"])


SQL_WEIGHTED_SAMPLE = f"""
SELECT o_orderkey, priority, rank FROM (
  SELECT o_orderkey,
         (CAST(hu >> 11 AS DOUBLE) * {2.0 ** -53!r}) / o_totalprice AS priority,
         CAST(ROW_NUMBER() OVER (
           ORDER BY (CAST(hu >> 11 AS DOUBLE) * {2.0 ** -53!r}) / o_totalprice,
                    o_orderkey) AS BIGINT) AS rank
  FROM {sketch_sql_subquery('(SELECT o_orderkey, o_totalprice FROM orders)',
                            'o_orderkey')})
WHERE rank <= {WSAMPLE_K}
"""


# ------------------------------------------------------------ adaptive cells


def q_adaptive_cells(sf_dir: str):
    """Skew-adaptive quadtree leaves over the image capture points (the 3
    dense urban cells of the fixture split to 32×32 while sparse ocean
    stays 8×8) — ops.tiles.adaptive_cells: one-pass pyramid counts, one
    child→parent self-join, fully distributed leaf rule. Threshold =
    n_images // 64."""
    from georay import fixtures

    ds = fixtures.read_images(sf_dir, columns=["lon", "lat"])

    def to_cell(t: pa.Table) -> pa.Table:
        cell = codec.encode(
            t["lon"].to_numpy(zero_copy_only=False),
            t["lat"].to_numpy(zero_copy_only=False),
            BITS_TILE,
        )
        return pa.table({"cell": cell.astype(np.int64)})

    keyed = ds.map_batches(to_cell, batch_format="pyarrow", zero_copy_batch=True)
    thr = max(1, fixtures.n_images_for(sf_dir) // 64)
    return tiles.adaptive_cells(keyed, BITS_TILE, levels=3, threshold=thr)


def sql_adaptive_cells(n: int) -> str:
    thr = max(1, n // 64)
    return f"""
WITH p AS ({_sql_img_coords(n)}),
c0 AS (SELECT {sql_x('lon', 5)} AS x, {sql_y('lat', 5)} AS y,
              CAST(COUNT(*) AS BIGINT) AS n FROM p GROUP BY 1, 2),
c1 AS (SELECT x // 2 AS x, y // 2 AS y, CAST(SUM(n) AS BIGINT) AS n
       FROM c0 GROUP BY 1, 2),
c2 AS (SELECT x // 2 AS x, y // 2 AS y, CAST(SUM(n) AS BIGINT) AS n
       FROM c1 GROUP BY 1, 2)
SELECT CAST(6 AS BIGINT) AS cell_bits, x AS tile_x, y AS tile_y, n
FROM c2 WHERE n <= {thr}
UNION ALL
SELECT CAST(8 AS BIGINT), c1.x, c1.y, c1.n
FROM c1 JOIN c2 ON c2.x = c1.x // 2 AND c2.y = c1.y // 2
WHERE c1.n <= {thr} AND c2.n > {thr}
UNION ALL
SELECT CAST(10 AS BIGINT), c0.x, c0.y, c0.n
FROM c0 JOIN c1 ON c1.x = c0.x // 2 AND c1.y = c0.y // 2
WHERE c1.n > {thr}
"""


# --------------------------------------------------------------- tile trend

T0_US = 1704067200000000  # epoch_us('2024-01-01'), the events table origin


def q_tile_trend(sf_dir: str):
    """Per-tile least-squares trend of event value over time (tiles =
    users' synthetic home cells): x = hours since 2024-01-01, y = value in
    exact milli-units; integer moments + bigint closed form
    (ops.tiles.tile_trend) make the slope bit-equal to the HUGEINT SQL."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        lon, lat = spatial.synth_lonlat(
            t["user_id"].to_numpy(zero_copy_only=False))
        cell = codec.encode(lon, lat, BITS_TILE).astype(np.int64)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        x = (us - T0_US) // 3600000000
        y = np.round(
            t["value"].to_numpy(zero_copy_only=False) * 1000
        ).astype(np.int64)
        return pa.table({"cell": cell, "x": x, "y": y})

    keyed = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    out = tiles.tile_trend(keyed, "cell", "x", "y")

    def fin(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        return pa.table({"tile_x": x.astype(np.int64),
                         "tile_y": y.astype(np.int64),
                         "n": t["n"], "slope": t["slope"]})

    return out.map_batches(fin, batch_format="pyarrow")


SQL_TILE_TREND = f"""
WITH e AS (SELECT {sql_x(sql_lon('user_id'), 5)} AS tile_x,
                  {sql_y(sql_lat('user_id'), 5)} AS tile_y,
                  (epoch_us(ts) - {T0_US}) // 3600000000 AS x,
                  CAST(ROUND(value * 1000) AS BIGINT) AS y
           FROM events),
a AS (SELECT tile_x, tile_y, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
             CAST(SUM(x * y) AS BIGINT) AS sxy,
             CAST(SUM(x * x) AS BIGINT) AS sxx
      FROM e GROUP BY 1, 2)
SELECT tile_x, tile_y, n,
  CASE WHEN CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx = 0 THEN 0.0
  ELSE CAST(CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy AS DOUBLE)
     / CAST(CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx AS DOUBLE)
  END AS slope
FROM a
"""


# ------------------------------------------------------------- transitions


def q_event_transitions(sf_dir: str):
    """Markov transition matrix of event types per user (ordered by ts,
    event_id): bigram counts + per-source totals + transition probability —
    bucketized sequence op, one shuffle (ops.window.transitions)."""
    from georay.ops import window as win

    ev = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    return win.transitions(ev, "user_id", "ts", "event_id", "event_type")


SQL_TRANSITIONS = """
WITH seq AS (SELECT user_id, event_type,
                    LAG(event_type) OVER (
                      PARTITION BY user_id ORDER BY ts, event_id) AS prev
             FROM events),
c AS (SELECT prev AS from_type, event_type AS to_type,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM seq WHERE prev IS NOT NULL GROUP BY 1, 2),
t AS (SELECT from_type, CAST(SUM(n) AS BIGINT) AS from_total
      FROM c GROUP BY 1)
SELECT c.from_type, c.to_type, c.n, t.from_total,
       CAST(c.n AS DOUBLE) / CAST(t.from_total AS DOUBLE) AS prob
FROM c JOIN t USING (from_type)
"""


# -------------------------------------------------------------- tile growth

GROWTH_SPLIT_US = T0_US + 15 * 86400 * 1000000  # month midpoint
GROWTH_K = 25


def q_tile_growth(sf_dir: str):
    """Spatiotemporal change detection: per-tile event counts in the two
    month halves (before/after Jan 16), Laplace-smoothed growth ratio
    ``(n_b+1)/(n_a+1)`` (ONE float division — SQL-replayable), top-25
    growing tiles. Counts are one two-phase aggregate over (tile, half);
    only O(tiles) rows reach the ratio stage."""
    from georay.runtime import table_from_pandas

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        lon, lat = spatial.synth_lonlat(
            t["user_id"].to_numpy(zero_copy_only=False))
        cell = codec.encode(lon, lat, BITS_TILE).astype(np.int64)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        late = (us >= GROWTH_SPLIT_US).astype(np.int64)
        return pa.table({"cell": cell, "a": 1 - late, "b": late})

    agg = runtime.group_agg(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "cell", {"n_a": ("sum", "a"), "n_b": ("sum", "b")},
    )

    def ratio(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        n_a = t["n_a"].to_numpy(zero_copy_only=False)
        n_b = t["n_b"].to_numpy(zero_copy_only=False)
        g = (n_b + 1).astype(np.float64) / (n_a + 1).astype(np.float64)
        return pa.table({"tile_x": x.astype(np.int64),
                         "tile_y": y.astype(np.int64),
                         "n_a": t["n_a"], "n_b": t["n_b"],
                         "growth": pa.array(g)})

    top = agg.map_batches(
        ratio, batch_format="pyarrow"
    ).sort(["growth", "tile_x", "tile_y"],
           descending=[True, False, False]).limit(GROWTH_K)

    def add_rank(df):
        df = df.sort_values(["growth", "tile_x", "tile_y"],
                            ascending=[False, True, True]
                            ).reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return table_from_pandas(df)

    return top.repartition(1).map_batches(add_rank, batch_format="pandas")


SQL_TILE_GROWTH = f"""
WITH e AS (SELECT {sql_x(sql_lon('user_id'), 5)} AS tile_x,
                  {sql_y(sql_lat('user_id'), 5)} AS tile_y,
                  CASE WHEN epoch_us(ts) >= {GROWTH_SPLIT_US}
                       THEN 1 ELSE 0 END AS late
           FROM events),
a AS (SELECT tile_x, tile_y,
             CAST(SUM(1 - late) AS BIGINT) AS n_a,
             CAST(SUM(late) AS BIGINT) AS n_b
      FROM e GROUP BY 1, 2),
g AS (SELECT tile_x, tile_y, n_a, n_b,
             CAST(n_b + 1 AS DOUBLE) / CAST(n_a + 1 AS DOUBLE) AS growth
      FROM a)
SELECT tile_x, tile_y, n_a, n_b, growth,
       CAST(ROW_NUMBER() OVER (
         ORDER BY growth DESC, tile_x, tile_y) AS BIGINT) AS rank
FROM g QUALIFY rank <= {GROWTH_K}
"""


# ----------------------------------------------------------- Q5 star revenue

Q5_LO_US = 820454400000000   # TIMESTAMP '1996-01-01' in epoch µs
Q5_HI_US = 852076800000000   # TIMESTAMP '1997-01-01'
Q5_REGION = "ASIA"


def q_local_revenue(sf_dir: str):
    """TPC-H Q5 shape — per-nation revenue where customer and supplier
    share the nation, region-filtered, 1996 orders. Star plan: the three
    tiny dims (region→nation set, supplier→nation, nation→name) broadcast
    as closure arrays; customer⋈orders is the big-big HASH JOIN;
    lineitem rows carry exact integer revenue into their join; one
    ``group_agg`` sum per nation finishes."""
    import pyarrow.compute as pc

    nation = _read_table(sf_dir, "nation")
    region = _read_table(sf_dir, "region")
    rkey = region.filter(pc.equal(region["r_name"], Q5_REGION))[
        "r_regionkey"][0].as_py()
    nmask = pc.equal(nation["n_regionkey"], rkey)
    nat_keys = nation.filter(nmask)["n_nationkey"].to_numpy().astype(np.int64)
    nat_names = {int(k): str(v) for k, v in zip(
        nation.filter(nmask)["n_nationkey"].to_numpy(),
        nation.filter(nmask)["n_name"].to_pylist())}

    supp = _read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    sk_sorted = np.sort(supp["s_suppkey"].to_numpy().astype(np.int64))
    sk_order = np.argsort(supp["s_suppkey"].to_numpy().astype(np.int64))
    sk_nat = supp["s_nationkey"].to_numpy().astype(np.int64)[sk_order]
    name_arr = np.full(32, "", dtype=object)
    for k, v in nat_names.items():
        name_arr[k] = v

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def cust_prep(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = pa.array(np.isin(nk, nat_keys))
        return pa.table({"c_custkey": t["c_custkey"].filter(keep),
                         "c_nat": pa.array(nk[np.isin(nk, nat_keys)])})

    cust_f = cust.map_batches(cust_prep, batch_format="pyarrow",
                              zero_copy_batch=True)

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_prep(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = pa.array((us >= Q5_LO_US) & (us < Q5_HI_US))
        return pa.table({"o_orderkey": t["o_orderkey"].filter(keep),
                         "o_custkey": t["o_custkey"].filter(keep)})

    orders_f = orders.map_batches(ord_prep, batch_format="pyarrow",
                                  zero_copy_batch=True)
    ord_cust = runtime.join(orders_f, cust_f, "inner", on=("o_custkey",),
                            right_on=("c_custkey",))

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])

    def li_rev(t: pa.Table) -> pa.Table:
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(sk_sorted, sk)  # broadcast dim lookup,
        # vectorized: every lineitem row resolves its supplier nation
        pos = np.clip(pos, 0, sk_sorted.size - 1)
        hit = sk_sorted[pos] == sk
        s_nat = np.where(hit, sk_nat[pos], -1)
        keep = np.isin(s_nat, nat_keys)
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)[keep]
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False)[keep] * 100).astype(np.int64)
        pct = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False)[keep] * 100).astype(np.int64)
        return pa.table({"l_orderkey": ok, "s_nat": s_nat[keep],
                         "p_rev": cents * (100 - pct)})

    li_p = li.map_batches(li_rev, batch_format="pyarrow",
                          zero_copy_batch=True)
    joined = runtime.join(li_p,
                          ord_cust.select_columns(["o_orderkey", "c_nat"]),
                          "inner", on=("l_orderkey",),
                          right_on=("o_orderkey",))

    def same_nation(t: pa.Table) -> pa.Table:
        s_nat = t["s_nat"].to_numpy(zero_copy_only=False)
        c_nat = t["c_nat"].to_numpy(zero_copy_only=False)
        keep = s_nat == c_nat
        names = name_arr[s_nat[keep]].astype(str)
        return pa.table({
            "n_name": pa.array(names),
            "p_rev": pa.array(
                t["p_rev"].to_numpy(zero_copy_only=False)[keep]),
        })

    return runtime.group_agg(
        joined.map_batches(same_nation, batch_format="pyarrow",
                           zero_copy_batch=True),
        "n_name", {"revenue_u": ("sum", "p_rev")},
    )


SQL_LOCAL_REVENUE = f"""
SELECT n_name,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS BIGINT)
         AS revenue_u
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '{Q5_REGION}'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n_name
"""


# ---------------------------------------------------------------------- IDW

IDW_K = 8


def q_idw_grid(sf_dir: str):
    """IDW interpolation of event values at the 16 centers of a 4×4
    world grid: exact integer milli-degree distances, k=8 nearest, fixed
    (d², id)-ordered float accumulation (ops.knn.idw_broadcast)."""
    from georay.ops import knn as knn_ops
    from georay.ops.spatial import HASH_LAT, HASH_LON

    qx, qy = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    qx, qy = qx.ravel(), qy.ravel()
    q_ids = qx * 4 + qy
    q_mx = -180000 + qx * 90000 + 45000
    q_my = -90000 + qy * 45000 + 22500

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        mx = (uid * HASH_LON) % 360000 - 180000
        my = (uid * HASH_LAT) % 180000 - 90000
        v = np.round(
            t["value"].to_numpy(zero_copy_only=False) * 1000
        ).astype(np.int64)
        return pa.table({"id": t["event_id"], "mx": mx, "my": my, "v": v})

    pts = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return knn_ops.idw_broadcast(pts, q_ids, q_mx, q_my, k=IDW_K)


def sql_idw_grid(k: int = IDW_K) -> str:
    from georay.ops.spatial import HASH_LAT, HASH_LON

    wv = " + ".join(
        f"MAX(CASE WHEN rnk = {j} THEN CAST(v AS DOUBLE)"
        f" / CAST(d2 + 1 AS DOUBLE) END)" for j in range(1, k + 1))
    w = " + ".join(
        f"MAX(CASE WHEN rnk = {j} THEN 1.0"
        f" / CAST(d2 + 1 AS DOUBLE) END)" for j in range(1, k + 1))
    return f"""
WITH q AS (SELECT CAST(a.qx * 4 + b.qy AS BIGINT) AS query_id,
                  -180000 + a.qx * 90000 + 45000 AS mqx,
                  -90000 + b.qy * 45000 + 22500 AS mqy
           FROM range(0, 4) a(qx) CROSS JOIN range(0, 4) b(qy)),
p AS (SELECT event_id,
             (user_id * {HASH_LON}) % 360000 - 180000 AS mx,
             (user_id * {HASH_LAT}) % 180000 - 90000 AS my,
             CAST(ROUND(value * 1000) AS BIGINT) AS v
      FROM events),
d AS (SELECT q.query_id, p.v,
             (p.mx - q.mqx) * (p.mx - q.mqx)
             + (p.my - q.mqy) * (p.my - q.mqy) AS d2,
             p.event_id
      FROM q CROSS JOIN p),
r AS (SELECT query_id, v, d2,
             CAST(ROW_NUMBER() OVER (
               PARTITION BY query_id ORDER BY d2, event_id) AS BIGINT) AS rnk
      FROM d)
SELECT query_id, CAST(COUNT(*) AS BIGINT) AS n_used,
       ({wv}) / ({w}) AS idw
FROM r WHERE rnk <= {k} GROUP BY query_id
"""


SQL_IDW_GRID = sql_idw_grid()


# ----------------------------------------------------------- caption geoparse

_GH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"


def q_caption_geoparse(sf_dir: str):
    """Multimodal × geo crossover: parse the geohash5 token out of every
    image CAPTION (real string data read from parquet), re-encode the
    capture coordinates, and count agreement per geohash first letter.
    The oracle rebuilds the base32 string geohash from scratch in SQL
    (bit-interleave + alphabet lookup), so the full S1 string-encode path
    is SQL-verified — any drift in extract, Morton split, or alphabet
    order breaks n_ok."""
    import pandas as pd

    from georay import fixtures

    ds = fixtures.read_images(sf_dir, columns=["caption", "lon", "lat"])

    def check(df):
        extracted = df["caption"].str[-5:].to_numpy()
        expected = codec.encode_str(
            df["lon"].to_numpy(), df["lat"].to_numpy(), 5
        ).astype("U5")
        ok = (extracted == expected).astype(np.int64)
        gh1 = pd.Series(extracted).str[0].to_numpy()
        return pa.table({"gh1": pa.array(gh1, pa.string()), "ok": ok})

    return runtime.group_agg(
        ds.map_batches(check, batch_format="pandas"),
        "gh1", {"n": ("count", None), "n_ok": ("sum", "ok")},
    )


def sql_caption_geoparse(n: int) -> str:
    # 25-bit odd Morton: x (13 bits) at even positions, y (12) at odd
    terms = [f"((x // {1 << j}) % 2) * {1 << (2 * j)}" for j in range(13)]
    terms += [f"((y // {1 << j}) % 2) * {1 << (2 * j + 1)}" for j in range(12)]
    morton = " + ".join(terms)
    chars = " || ".join(
        f"substr('{_GH_ALPHABET}', CAST((m // {1 << (20 - 5 * k)}) % 32 "
        f"AS INTEGER) + 1, 1)" for k in range(5))
    return f"""
WITH p AS ({_sql_img_coords(n)}),
g AS (SELECT {sql_x('lon', 13)} AS x, {sql_y('lat', 12)} AS y FROM p),
m AS (SELECT {morton} AS m FROM g),
gh AS (SELECT {chars} AS gh5 FROM m)
SELECT substr(gh5, 1, 1) AS gh1, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(*) AS BIGINT) AS n_ok
FROM gh GROUP BY 1
"""


def q_cell_prefix_scan(sf_dir: str):
    """The classic geohash STRING range query: every base32 prefix is a
    contiguous key range, so 'd*' selects one precision-1 cell without
    decoding. Customers are encoded to geohash5 strings and prefix-
    filtered in one zero-shuffle pass; the oracle rebuilds the base32
    string from scratch in SQL (the caption_geoparse Morton idiom), so
    the emitted STRINGS — not just counts — cross the oracle boundary.
    At scale the same prefix maps to CellIndex partition pruning
    (X5/X6); this query pins the string-path equivalence."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])

    def scan(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        gh = codec.encode_str(lon, lat, 5).astype("U5")
        keep = np.char.startswith(gh, "d")
        return pa.table({
            "c_custkey": pa.array(key[keep]),
            "gh5": pa.array(gh[keep].tolist(), pa.string()),
        })

    return cust.map_batches(scan, batch_format="pyarrow",
                            zero_copy_batch=True)


def _sql_cell_prefix_scan() -> str:
    terms = [f"((x // {1 << j}) % 2) * {1 << (2 * j)}" for j in range(13)]
    terms += [f"((y // {1 << j}) % 2) * {1 << (2 * j + 1)}" for j in range(12)]
    morton = " + ".join(terms)
    chars = " || ".join(
        f"substr('{_GH_ALPHABET}', CAST((m // {1 << (20 - 5 * k)}) % 32 "
        f"AS INTEGER) + 1, 1)" for k in range(5))
    return f"""
WITH g AS (SELECT c_custkey,
                  {sql_x(sql_lon('c_custkey'), 13)} AS x,
                  {sql_y(sql_lat('c_custkey'), 12)} AS y
           FROM customer),
m AS (SELECT c_custkey, {morton} AS m FROM g),
gh AS (SELECT c_custkey, {chars} AS gh5 FROM m)
SELECT c_custkey, gh5 FROM gh WHERE substr(gh5, 1, 1) = 'd'
"""


SQL_CELL_PREFIX_SCAN = _sql_cell_prefix_scan()


# ---------------------------------------------------------------- mutual kNN


def q_ann_mutual(sf_dir: str):
    """Reciprocal nearest-neighbor matching (the record-linkage 'best
    match' rule) within the query subset: pairs where each vector is in
    the other's cosine top-k. One brute_topk pass, then a self-join on the
    packed (a,b)↔(b,a) key — only O(k·|Q|) rank rows shuffle."""
    from georay.ops import similarity as sim

    q_table = _read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mask = (q_table["vec_id"].to_numpy() % 10) == 0
    q_ids = q_table["vec_id"].to_numpy()[mask]
    q_mat = sim.emb_matrix(q_table["embedding"])[mask]

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def subset(t: pa.Table) -> pa.Table:
        vid = t["vec_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(vid % 10 == 0))

    sub = emb.map_batches(subset, batch_format="pyarrow", zero_copy_batch=True)
    ranks = sim.brute_topk(sub, q_ids, q_mat, k=ANN_K).materialize()

    B = np.int64(1) << np.int64(32)

    def fwd_key(t: pa.Table) -> pa.Table:
        q = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["neighbor_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"pk": q * B + n, "id_a": q, "id_b": n, "rank_ab": r})

    def rev_key(t: pa.Table) -> pa.Table:
        q = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["neighbor_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"pk": n * B + q, "rank_ba": r})

    fwd = ranks.map_batches(fwd_key, batch_format="pyarrow",
                            zero_copy_batch=True)
    rev = ranks.map_batches(rev_key, batch_format="pyarrow",
                            zero_copy_batch=True)
    joined = runtime.join(fwd, rev, "inner", on=("pk",))

    def fin(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b = t["id_b"].to_numpy(zero_copy_only=False)
        keep = a < b  # each mutual pair appears twice; keep one
        return pa.table({
            "id_a": pa.array(a[keep]), "id_b": pa.array(b[keep]),
            "rank_ab": pa.array(
                t["rank_ab"].to_numpy(zero_copy_only=False)[keep]),
            "rank_ba": pa.array(
                t["rank_ba"].to_numpy(zero_copy_only=False)[keep]),
        })

    return joined.map_batches(fin, batch_format="pyarrow",
                              zero_copy_batch=True)


SQL_ANN_MUTUAL = f"""
WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id % 10 = 0),
r AS (SELECT a.vec_id AS query_id, b.vec_id AS neighbor_id,
             CAST(ROW_NUMBER() OVER (
               PARTITION BY a.vec_id
               ORDER BY list_cosine_similarity(a.embedding, b.embedding)
                        DESC, b.vec_id) AS BIGINT) AS rank
      FROM q a JOIN q b ON a.vec_id <> b.vec_id),
t AS (SELECT * FROM r WHERE rank <= {ANN_K})
SELECT f.query_id AS id_a, f.neighbor_id AS id_b,
       f.rank AS rank_ab, g.rank AS rank_ba
FROM t f JOIN t g
  ON g.query_id = f.neighbor_id AND g.neighbor_id = f.query_id
WHERE f.query_id < f.neighbor_id
"""


# ---------------------------------------------------------------- colocation

COLOC_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_colocation(sf_dir: str):
    """Spatial co-location mining (participation-lift of category pairs):
    which event types occur together in the same user-home tile more than
    chance — lift = n_ab·K / (n_a·n_b) over per-cell presence sets.
    Plan: per-row presence flags (wide 0/1 columns, the pivot idiom) →
    ONE group_agg max builds the distinct (cell → presence vector) table
    → per-batch partial pair-AND sums reduce to 5+10+1 driver ints
    (bounded, like k-means) → the 10-row matrix finalizes driver-side."""
    import pandas as pd

    tlist = COLOC_TYPES
    nt = len(tlist)
    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def presence(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(uid)
        cell = codec.encode(lon, lat, BITS_TILE).astype(np.int64)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        cols = {"cell": cell}
        for i, ty in enumerate(tlist):
            cols[f"p{i}"] = (et == ty).astype(np.int64)
        return pa.table(cols)

    pres = runtime.group_agg(
        ev.map_batches(presence, batch_format="pyarrow", zero_copy_batch=True),
        "cell", {f"b{i}": ("max", f"p{i}") for i in range(nt)},
    )

    def pair_partial(t: pa.Table) -> pa.Table:
        b = np.stack(
            [t[f"b{i}"].to_numpy(zero_copy_only=False) for i in range(nt)],
            axis=1,
        )
        out = {"k_part": [np.int64(t.num_rows)]}
        for i in range(nt):
            out[f"n{i}"] = [b[:, i].sum(dtype=np.int64)]
            for j in range(i + 1, nt):
                out[f"n{i}_{j}"] = [(b[:, i] & b[:, j]).sum(dtype=np.int64)]
        return pa.table({kk: pa.array(v, pa.int64()) for kk, v in out.items()})

    st = pres.map_batches(
        pair_partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas().sum()  # bounded: one row per presence block
    k_cells = int(st["k_part"])
    rows = []
    for i in range(nt):
        for j in range(i + 1, nt):
            n_ab = int(st[f"n{i}_{j}"])
            if n_ab == 0:
                continue
            n_a, n_b = int(st[f"n{i}"]), int(st[f"n{j}"])
            lift = (float(n_ab) * float(k_cells)) / float(n_a * n_b)
            rows.append((tlist[i], tlist[j], n_ab, n_a, n_b, lift))
    return pd.DataFrame(
        rows, columns=["type_a", "type_b", "n_ab", "n_a", "n_b", "lift"]
    ).astype({"n_ab": np.int64, "n_a": np.int64, "n_b": np.int64})


SQL_COLOCATION = f"""
WITH e AS (SELECT DISTINCT {sql_x(sql_lon('user_id'), 5)} AS x,
                           {sql_y(sql_lat('user_id'), 5)} AS y,
                           event_type
           FROM events),
st AS (SELECT CAST(COUNT(*) AS BIGINT) AS k
       FROM (SELECT DISTINCT x, y FROM e)),
n AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM e GROUP BY 1),
p AS (SELECT a.event_type AS type_a, b.event_type AS type_b,
             CAST(COUNT(*) AS BIGINT) AS n_ab
      FROM e a JOIN e b
        ON a.x = b.x AND a.y = b.y AND a.event_type < b.event_type
      GROUP BY 1, 2)
SELECT type_a, type_b, n_ab, na.n AS n_a, nb.n AS n_b,
       (CAST(n_ab AS DOUBLE) * CAST(k AS DOUBLE))
         / CAST(na.n * nb.n AS DOUBLE) AS lift
FROM p JOIN n na ON na.event_type = type_a
       JOIN n nb ON nb.event_type = type_b
CROSS JOIN st
"""


# ---------------------------------------------------------- tile image stats

_CHANSUM_TABLE_CACHE: dict[int, str] = {}


def _sql_chansum_values() -> str:
    """(pmod, sum_r, sum_g, sum_b, npx) literal rows for one pixel period,
    through the SAME encode→decode path the stage runs (q6 is lossy — the
    decoded sums differ from the synth pattern's)."""
    cached = _CHANSUM_TABLE_CACHE.get(0)
    if cached is None:
        from georay import images
        from georay.fixtures import PIXEL_PERIOD

        rows = []
        for p in range(PIXEL_PERIOD):
            w, h = images.image_dims(p)
            fmt = images.image_fmt(p)
            blob = images.encode_image(images.synth_pixels(p, w, h), fmt)
            px = images.decode_image(blob, fmt).astype(np.int64)
            s = px.reshape(-1, 3).sum(axis=0)
            rows.append(f"({p}, {s[0]}, {s[1]}, {s[2]}, {w * h})")
        cached = ",\n  ".join(rows)
        _CHANSUM_TABLE_CACHE[0] = cached
    return cached


def q_tile_image_stats(sf_dir: str):
    """Per-tile color statistics of the DECODED images (multimodal × geo
    rollup): exact int64 channel sums per image, two-phase per-tile
    aggregation, means as one float division each. The decode runs on the
    real binary column; the oracle replays it through a 768-entry
    period-literal table (the images_features idiom) joined to the coord
    formula."""
    from georay import fixtures, images

    ds = fixtures.read_images(
        sf_dir, columns=["fmt", "bytes", "lon", "lat"])

    def channel_sums(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        fmts = t["fmt"].to_pylist()
        blobs = t["bytes"].to_pylist()
        n = len(blobs)
        sums = np.zeros((n, 3), np.int64)
        npx = np.zeros(n, np.int64)
        for i in range(n):  # decode is inherently per-image
            px = images.decode_image(blobs[i], fmts[i]).astype(np.int64)
            sums[i] = px.reshape(-1, 3).sum(axis=0)
            npx[i] = px.shape[0] * px.shape[1]
        return pa.table({
            "cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64),
            "px": npx, "r": sums[:, 0], "g": sums[:, 1], "b": sums[:, 2],
        })

    agg = runtime.group_agg(
        ds.map_batches(channel_sums, batch_format="pyarrow",
                       zero_copy_batch=True),
        "cell",
        {"n_img": ("count", None), "n_px": ("sum", "px"),
         "sum_r": ("sum", "r"), "sum_g": ("sum", "g"), "sum_b": ("sum", "b")},
    )

    def fin(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        n_px = t["n_px"].to_numpy(zero_copy_only=False).astype(np.float64)
        cols = {"tile_x": pa.array(x.astype(np.int64)),
                "tile_y": pa.array(y.astype(np.int64)),
                "n_img": t["n_img"]}
        for ch in ("r", "g", "b"):
            s = t[f"sum_{ch}"].to_numpy(
                zero_copy_only=False).astype(np.float64)
            cols[f"mean_{ch}"] = pa.array(s / n_px)
        return pa.table(cols)

    return agg.map_batches(fin, batch_format="pyarrow")


def sql_tile_image_stats(n: int) -> str:
    return f"""
WITH img AS ({_sql_img(n)}),
co AS ({_sql_img_coords(n)}),
ch(pmod, sum_r, sum_g, sum_b, npx) AS (VALUES
  {_sql_chansum_values()}
),
j AS (SELECT {sql_x('co.lon', 5)} AS tile_x, {sql_y('co.lat', 5)} AS tile_y,
             ch.sum_r, ch.sum_g, ch.sum_b, ch.npx
      FROM img JOIN co ON co.i = img.i
      JOIN ch ON ch.pmod = img.pix % 768),
a AS (SELECT tile_x, tile_y, CAST(COUNT(*) AS BIGINT) AS n_img,
             CAST(SUM(npx) AS BIGINT) AS n_px,
             CAST(SUM(sum_r) AS BIGINT) AS sr,
             CAST(SUM(sum_g) AS BIGINT) AS sg,
             CAST(SUM(sum_b) AS BIGINT) AS sb
      FROM j GROUP BY 1, 2)
SELECT tile_x, tile_y, n_img,
       CAST(sr AS DOUBLE) / CAST(n_px AS DOUBLE) AS mean_r,
       CAST(sg AS DOUBLE) / CAST(n_px AS DOUBLE) AS mean_g,
       CAST(sb AS DOUBLE) / CAST(n_px AS DOUBLE) AS mean_b
FROM a
"""


# ----------------------------------------------------------------- tile rollup

ROLLUP_LEVELS = [5, 3, 1, 0]  # 32x32, 8x8, 2x2, whole-earth


def q_tile_rollup(sf_dir: str):
    """Hierarchical spatial drill-down (GROUPING SETS over cell precisions):
    order counts + exact cent revenue at FOUR tile resolutions in ONE pass —
    every row emits its (level, x, y) key at each level, so a single
    ``group_agg`` finalizes the whole cube (no per-level rescan; the coarse
    levels ride along for O(levels) extra partial rows per batch)."""
    import pyarrow.compute as pc

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def levels(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        cell = codec.encode(lon, lat, BITS_TILE)
        x5, y5 = codec.deinterleave(cell, BITS_TILE)
        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
        ).to_numpy()
        return pa.concat_tables([
            pa.table({
                "level": np.full(cents.size, lv, np.int64),
                "tile_x": (x5 >> (5 - lv)).astype(np.int64),
                "tile_y": (y5 >> (5 - lv)).astype(np.int64),
                "cents": cents,
            })
            for lv in ROLLUP_LEVELS
        ])

    return runtime.group_agg(
        orders.map_batches(levels, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["level", "tile_x", "tile_y"],
        {"n": ("count", None), "sum_cents": ("sum", "cents")},
    )


def _sql_rollup_level(lv: int) -> str:
    d = 1 << (5 - lv)
    return f"""SELECT CAST({lv} AS BIGINT) AS level, x5 // {d} AS tile_x,
       y5 // {d} AS tile_y, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(cents) AS BIGINT) AS sum_cents
FROM b GROUP BY 1, 2, 3"""


SQL_TILE_ROLLUP = f"""
WITH b AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x5,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y5,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders)
{chr(10).join(_sql_rollup_level(lv) + ("" if lv == ROLLUP_LEVELS[-1] else chr(10) + "UNION ALL")
              for lv in ROLLUP_LEVELS)}
"""


# -------------------------------------------------------------- tile diversity


def q_tile_diversity(sf_dir: str):
    """Per-tile category diversity: Gini–Simpson index 1 − Σ(nᵢ/n)² over
    event types per user-home tile — kept EXACT by multiplying out to the
    integer form (n² − Σnᵢ²)/n²: two stacked two-phase integer aggregates
    ((cell,type) counts, then per-cell moment sums) and ONE float division
    at the end, mirrored verbatim in the SQL twin."""
    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def cell_type(t: pa.Table) -> pa.Table:
        lon, lat = spatial.synth_lonlat(
            t["user_id"].to_numpy(zero_copy_only=False))
        return pa.table({
            "cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64),
            "event_type": t["event_type"],
        })

    counts = runtime.group_agg(
        ev.map_batches(cell_type, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["cell", "event_type"], {"n_ct": ("count", None)},
    )

    def square(t: pa.Table) -> pa.Table:
        n = t["n_ct"].to_numpy(zero_copy_only=False)
        return pa.table({"cell": t["cell"], "n": n, "nn": n * n})

    mom = runtime.group_agg(
        counts.map_batches(square, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell",
        {"n": ("sum", "n"), "ssq": ("sum", "nn"), "n_types": ("count", None)},
    )

    def fin(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        n = t["n"].to_numpy(zero_copy_only=False)
        ssq = t["ssq"].to_numpy(zero_copy_only=False)
        return pa.table({
            "tile_x": x.astype(np.int64), "tile_y": y.astype(np.int64),
            "n": n, "n_types": t["n_types"],
            "gini": (n * n - ssq).astype(np.float64)
            / (n * n).astype(np.float64),
        })

    return mom.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


SQL_TILE_DIVERSITY = f"""
WITH c AS (SELECT {sql_x(sql_lon('user_id'), 5)} AS x,
                  {sql_y(sql_lat('user_id'), 5)} AS y,
                  event_type, CAST(COUNT(*) AS BIGINT) AS n
           FROM events GROUP BY 1, 2, 3)
SELECT x AS tile_x, y AS tile_y,
       CAST(SUM(n) AS BIGINT) AS n,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(SUM(n) * SUM(n) - SUM(n * n) AS DOUBLE)
         / CAST(SUM(n) * SUM(n) AS DOUBLE) AS gini
FROM c GROUP BY 1, 2
"""


# ------------------------------------------------------------ cohort retention

DAY_US = 86_400_000_000


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix: users grouped by first-active day, counted
    at each later active day offset. Distinct (user, day) pairs via a
    two-phase groupby; the per-user MIN-day + offset expansion runs on
    ``runtime.by_key`` (segmented numpy across users inside a bucket,
    never one Python call per user); a final group_agg sum merges bucket
    partials."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def user_day(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy()
        return pa.table({"user_id": t["user_id"], "day": us // DAY_US})

    uw = runtime.group_agg(
        ev.map_batches(user_day, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "day"],
    )

    part_schema = pa.schema([("cohort_day", pa.int64()),
                             ("day_offset", pa.int64()),
                             ("p_n", pa.int64())])

    def per_bucket(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy()
        d = t["day"].to_numpy()
        o = np.lexsort((d, u))
        u, d = u[o], d[o]
        first = np.r_[0, 1 + np.flatnonzero(u[1:] != u[:-1])]
        runs = np.diff(np.r_[first, u.size])
        cohort = np.repeat(d[first], runs)  # sorted → first day is MIN
        k, n = np.unique((cohort << 20) | (d - cohort), return_counts=True)
        return pa.table({"cohort_day": k >> 20,
                         "day_offset": k & ((1 << 20) - 1),
                         "p_n": n.astype(np.int64)})

    return runtime.group_agg(
        runtime.by_key(uw, "user_id", per_bucket, part_schema),
        ["cohort_day", "day_offset"], {"n_users": ("sum", "p_n")},
    )


SQL_COHORT_RETENTION = f"""
WITH uw AS (SELECT DISTINCT user_id, epoch_us(ts) // {DAY_US} AS day
            FROM events),
c AS (SELECT user_id, MIN(day) AS cd FROM uw GROUP BY user_id)
SELECT c.cd AS cohort_day, uw.day - c.cd AS day_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM uw JOIN c USING (user_id)
GROUP BY 1, 2
"""


# -------------------------------------------------------------- triangle count

TRI_DEG = 3

KCORE_K = 5
KCORE_ROUNDS = 3


def q_kcore(sf_dir: str):
    """K-core decomposition by distributed peeling over the same
    hash-derived social graph as ``triangle_count``: {KCORE_ROUNDS} rounds
    of (two-phase degree count → keep nodes with degree ≥ {KCORE_K} →
    filter edges to surviving endpoints via two hash joins). At fixpoint
    this is the exact k-core; the operator contract (and the SQL twin,
    which unrolls the rounds as chained CTEs, the kmeans/pagerank idiom)
    is the fixed-round prefix — each round is one O(edges) exchange, the
    graph never collects on the driver. Output: (node, deg) in the
    round-{KCORE_ROUNDS} subgraph."""
    import pyarrow.compute as pc

    from georay.ops.sketch import splitmix64

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    n_nodes = cust.count()
    B = np.int64(1) << np.int64(32)

    def gen_edges(t: pa.Table) -> pa.Table:
        u = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = np.repeat(u, TRI_DEG)
        seed = (a * 4 + np.tile(np.arange(TRI_DEG, dtype=np.int64), u.size))
        d = (splitmix64(seed.astype(np.uint64))
             % np.uint64(n_nodes)).astype(np.int64) + 1
        lo, hi = np.minimum(a, d), np.maximum(a, d)
        m = lo != hi
        return pa.table({"ek": lo[m] * B + hi[m]})

    def unpack(t: pa.Table) -> pa.Table:
        ek = t["ek"].to_numpy(zero_copy_only=False)
        return pa.table({"a": ek // B, "b": ek % B})

    edges = (
        runtime.group_agg(
            cust.map_batches(gen_edges, batch_format="pyarrow",
                             zero_copy_batch=True),
            "ek",
        )
        .map_batches(unpack, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table({"node": np.concatenate([
            t["a"].to_numpy(zero_copy_only=False),
            t["b"].to_numpy(zero_copy_only=False),
        ])})

    def degrees(es):
        return runtime.group_agg(
            es.map_batches(endpoints, batch_format="pyarrow",
                           zero_copy_batch=True),
            "node", {"deg": ("count", None)},
        )

    for _ in range(KCORE_ROUNDS):
        surv = degrees(edges).map_batches(
            lambda t: t.filter(
                pc.greater_equal(t["deg"], KCORE_K)
            ).select(["node"]),
            batch_format="pyarrow",
        ).materialize()  # consumed twice (both join sides)

        def as_key(col):
            def fn(t: pa.Table) -> pa.Table:
                return t.rename_columns([col])
            return fn

        edges = (
            runtime.join(
                runtime.join(
                    edges,
                    surv.map_batches(as_key("a"), batch_format="pyarrow"),
                    "inner", on=("a",),
                ),
                surv.map_batches(as_key("b"), batch_format="pyarrow"),
                "inner", on=("b",),
            )
            .select_columns(["a", "b"])
            .materialize()
        )

    return degrees(edges)


SQL_KCORE = f"""
WITH nn AS (SELECT CAST(COUNT(*) AS UBIGINT) AS nc FROM customer),
src AS (SELECT c_custkey, j FROM customer
        CROSS JOIN (VALUES (0), (1), (2)) s(j)),
e0 AS (SELECT LEAST(c_custkey, CAST(hu % nc AS BIGINT) + 1) AS a,
              GREATEST(c_custkey, CAST(hu % nc AS BIGINT) + 1) AS b
       FROM {sketch_sql_subquery('src', 'c_custkey * 4 + j', 'hu')} h
       CROSS JOIN nn),
e AS (SELECT DISTINCT a, b FROM e0 WHERE a <> b),
d1 AS (SELECT node, COUNT(*) AS c FROM
       (SELECT a AS node FROM e UNION ALL SELECT b FROM e) GROUP BY node),
v1 AS (SELECT node FROM d1 WHERE c >= {KCORE_K}),
e1 AS (SELECT e.a, e.b FROM e JOIN v1 va ON va.node = e.a
       JOIN v1 vb ON vb.node = e.b),
d2 AS (SELECT node, COUNT(*) AS c FROM
       (SELECT a AS node FROM e1 UNION ALL SELECT b FROM e1) GROUP BY node),
v2 AS (SELECT node FROM d2 WHERE c >= {KCORE_K}),
e2 AS (SELECT e1.a, e1.b FROM e1 JOIN v2 va ON va.node = e1.a
       JOIN v2 vb ON vb.node = e1.b),
d3 AS (SELECT node, COUNT(*) AS c FROM
       (SELECT a AS node FROM e2 UNION ALL SELECT b FROM e2) GROUP BY node),
v3 AS (SELECT node FROM d3 WHERE c >= {KCORE_K}),
e3 AS (SELECT e2.a, e2.b FROM e2 JOIN v3 va ON va.node = e2.a
       JOIN v3 vb ON vb.node = e2.b)
SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM
(SELECT a AS node FROM e3 UNION ALL SELECT b FROM e3) GROUP BY node
"""


def q_triangle_count(sf_dir: str):
    """Distributed triangle counting over a deterministic hash-derived
    social graph (each customer gets {TRI_DEG} splitmix64 neighbors): the
    node-iterator plan — orient edges low→high, self-join on the LOW vertex
    to enumerate wedges, then an inner join of wedge closures (b,c) against
    the packed edge-key set. Only edge/wedge rows shuffle; the graph is
    never collected on the driver."""
    import pandas as pd

    from georay.ops.sketch import splitmix64

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    n_nodes = cust.count()
    B = np.int64(1) << np.int64(32)

    def gen_edges(t: pa.Table) -> pa.Table:
        u = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = np.repeat(u, TRI_DEG)
        seed = (a * 4 + np.tile(np.arange(TRI_DEG, dtype=np.int64), u.size))
        d = (splitmix64(seed.astype(np.uint64))
             % np.uint64(n_nodes)).astype(np.int64) + 1
        lo, hi = np.minimum(a, d), np.maximum(a, d)
        m = lo != hi
        return pa.table({"ek": lo[m] * B + hi[m]})

    edges_keys = runtime.group_agg(
        cust.map_batches(gen_edges, batch_format="pyarrow",
                         zero_copy_batch=True),
        "ek",
    )

    def unpack(t: pa.Table) -> pa.Table:
        ek = t["ek"].to_numpy(zero_copy_only=False)
        return pa.table({"a": ek // B, "b": ek % B, "ek": ek,
                         "flag": np.ones(ek.size, np.int64)})

    edges = edges_keys.map_batches(
        unpack, batch_format="pyarrow", zero_copy_batch=True).materialize()
    n_edges = edges.count()

    left = edges.select_columns(["a", "b"])

    def as_right(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["a"], "c": t["b"]})

    right = edges.map_batches(as_right, batch_format="pyarrow",
                              zero_copy_batch=True)
    wedges = runtime.join(left, right, "inner", on=("a",))

    def close_key(t: pa.Table) -> pa.Table:
        b = t["b"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        m = b < c  # each wedge pair appears twice; keep the ordered one
        return pa.table({"ek": b[m] * B + c[m]})

    closing = wedges.map_batches(close_key, batch_format="pyarrow",
                                 zero_copy_batch=True)
    tri = runtime.join(closing, edges.select_columns(["ek", "flag"]),
                       "inner", on=("ek",))
    n_tri = tri.count()

    return pd.DataFrame({
        "n_nodes": [np.int64(n_nodes)], "n_edges": [np.int64(n_edges)],
        "n_triangles": [np.int64(n_tri)],
    })


SQL_TRIANGLE_COUNT = f"""
WITH nn AS (SELECT CAST(COUNT(*) AS UBIGINT) AS nc FROM customer),
src AS (SELECT c_custkey, j FROM customer
        CROSS JOIN (VALUES (0), (1), (2)) s(j)),
e0 AS (SELECT LEAST(c_custkey, CAST(hu % nc AS BIGINT) + 1) AS a,
              GREATEST(c_custkey, CAST(hu % nc AS BIGINT) + 1) AS b
       FROM {sketch_sql_subquery('src', 'c_custkey * 4 + j', 'hu')} h
       CROSS JOIN nn),
e AS (SELECT DISTINCT a, b FROM e0 WHERE a <> b),
w AS (SELECT e1.b, e2.b AS c3 FROM e e1 JOIN e e2
      ON e2.a = e1.a AND e1.b < e2.b)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM customer) AS n_nodes,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM e) AS n_edges,
       CAST(COUNT(*) AS BIGINT) AS n_triangles
FROM w JOIN e ON e.a = w.b AND e.b = w.c3
"""


# ------------------------------------------------------------------- moran's I


def q_moran_i(sf_dir: str):
    """Global Moran's I spatial autocorrelation of per-tile order counts
    (queen 8-neighbor weights over OCCUPIED cells, the Getis-Ord
    convention). The distributed part is the two-phase count aggregate;
    the ≤2^bits-row cell table finalizes driver-side with exact Python
    integers (overflow-free at any scale) after multiplying out the mean:
    I = K·Σw(K·xᵢ−S)(K·xⱼ−S) / (W·Σ(K·xᵢ−S)²) — ONE float division, the
    SQL twin uses HUGEINT for the same products."""
    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    ).to_pandas()  # bounded: ≤ 2^BITS_TILE occupied cells

    cell = agg["cell"].to_numpy().astype(np.uint64)
    x, y = codec.deinterleave(cell, BITS_TILE)
    n = agg["n"].to_numpy()
    K = len(agg)
    S = int(n.sum())
    z = {(int(a), int(b)): K * int(v) - S for a, b, v in zip(x, y, n)}
    W = 0
    cross = 0
    ss = sum(v * v for v in z.values())
    for (cx, cy), zv in z.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nb = z.get((cx + dx, cy + dy))
                if nb is not None:
                    W += 1
                    cross += zv * nb
    return pd.DataFrame({
        "k_cells": [np.int64(K)], "w_pairs": [np.int64(W)],
        "moran_i": [float(K * cross) / float(W * ss)],
    })


SQL_MORAN_I = f"""
WITH c AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM orders GROUP BY 1, 2),
st AS (SELECT CAST(COUNT(*) AS HUGEINT) AS k, CAST(SUM(n) AS HUGEINT) AS s
       FROM c),
num AS (SELECT CAST(COUNT(*) AS HUGEINT) AS w,
               SUM((k * a.n - s) * (k * b.n - s)) AS cross_sum
        FROM c a JOIN c b
          ON abs(a.x - b.x) <= 1 AND abs(a.y - b.y) <= 1
             AND NOT (a.x = b.x AND a.y = b.y)
        CROSS JOIN st),
den AS (SELECT SUM((k * n - s) * (k * n - s)) AS ss FROM c CROSS JOIN st)
SELECT CAST(k AS BIGINT) AS k_cells, CAST(w AS BIGINT) AS w_pairs,
       CAST(k * cross_sum AS DOUBLE) / CAST(w * ss AS DOUBLE) AS moran_i
FROM st CROSS JOIN num CROSS JOIN den
"""


def q_bigram_topk(sf_dir: str):
    """Global top-20 ADJACENT token bigrams (order-sensitive, unlike the
    windowed co-occurrence op): batch-local shift pairing inside one
    tokenize pass, two-phase (w1, w2) counts, deterministic final rank
    (n DESC, w1, w2) in one merged partition — the count table is bounded
    by the bigram vocabulary, never the corpus."""
    import pandas as pd
    import re

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    word_re = re.compile(r"[\w']+", re.UNICODE)

    def bigrams(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df["text"].str.findall(word_re).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        w = toks.to_numpy()
        same = row[1:] == row[:-1]
        return pa.table({"w1": pa.array(w[:-1][same], pa.string()),
                         "w2": pa.array(w[1:][same], pa.string())})

    # one block, bounded by the bigram vocabulary: the final rank is local
    counts = runtime.group_agg(
        docs.map_batches(bigrams, batch_format="pandas"),
        ["w1", "w2"], {"n": ("count", None)},
    )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n", "w1", "w2"],
                            ascending=[False, True, True]).head(20)
        df = df.reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1)
        return df[["rank", "w1", "w2", "n"]]

    return counts.map_batches(topk, batch_format="pandas")


SQL_BIGRAM_TOPK = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w,
         unnest(range(len(regexp_extract_all(lower(text), '[\w'']+')))) AS i
  FROM documents),
bg AS (SELECT a.w AS w1, b.w AS w2
       FROM toks a JOIN toks b ON b.doc_id = a.doc_id AND b.i = a.i + 1),
c AS (SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS n FROM bg GROUP BY 1, 2)
SELECT CAST(r AS BIGINT) AS rank, w1, w2, n FROM (
  SELECT c.*, ROW_NUMBER() OVER (ORDER BY n DESC, w1, w2) AS r FROM c)
WHERE r <= 20
"""


def q_knn_classify(sf_dir: str):
    """k-NN classification of every 10th embedding by majority label vote
    of its 5 exact nearest neighbors (self excluded), vote ties to the
    smallest label (ops.similarity.knn_classify — brute_topk → label hash
    join → bucketed vectorized argmax)."""
    from georay.ops import similarity as sim

    q_table = _read_table(sf_dir, "embeddings",
                          columns=["vec_id", "embedding"])
    mask = (q_table["vec_id"].to_numpy() % 10) == 0
    q_ids = q_table["vec_id"].to_numpy()[mask]
    q_mat = sim.emb_matrix(q_table["embedding"])[mask]
    emb = _read(sf_dir, "embeddings",
                columns=["vec_id", "embedding", "label"])
    return sim.knn_classify(emb, q_ids, q_mat, k=ANN_K)


SQL_KNN_CLASSIFY = f"""
WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id % 10 = 0),
topk AS (
  SELECT query_id, neighbor_id FROM (
    SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
           ROW_NUMBER() OVER (
             PARTITION BY q.vec_id
             ORDER BY list_cosine_similarity(q.embedding, e.embedding)
               DESC, e.vec_id) AS rank
    FROM q JOIN embeddings e ON e.vec_id <> q.vec_id
  ) WHERE rank <= {ANN_K}),
v AS (SELECT t.query_id, CAST(e.label AS BIGINT) AS lab,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM topk t JOIN embeddings e ON e.vec_id = t.neighbor_id
      GROUP BY 1, 2)
SELECT query_id, lab AS pred_label, n AS votes FROM (
  SELECT v.*, ROW_NUMBER() OVER (
    PARTITION BY query_id ORDER BY n DESC, lab) AS r
  FROM v
) WHERE r = 1
"""


SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]


def q_segment_entropy(sf_dir: str):
    """Per-nation Shannon entropy of the customer market-segment mix —
    the diversity/balance score a data-curation pipeline reports per
    shard. Distributed part: two-phase (nation, segment) INTEGER counts
    (one row per pair per batch shuffles); the ≤ nations×5-row result
    finalizes with ONE fixed-order float expression
    H = ln(n) − (t₁+t₂+t₃+t₄+t₅)/n with tᵢ = cᵢ·ln(cᵢ) (0 when cᵢ=0),
    written with the same literal association order in Python and SQL so
    libm makes both sides bit-equal (moran_i discipline)."""
    import math

    import pandas as pd

    cust = _read(sf_dir, "customer", columns=["c_nationkey", "c_mktsegment"])
    seg_sorted = np.array(SEGMENTS)

    def nat_seg(t: pa.Table) -> pa.Table:
        seg = np.asarray(t["c_mktsegment"].to_pylist())
        return pa.table({
            "nat": t["c_nationkey"].cast(pa.int64()),
            "seg": np.searchsorted(seg_sorted, seg).astype(np.int64),
        })

    agg = runtime.group_agg(
        cust.map_batches(nat_seg, batch_format="pyarrow", zero_copy_batch=True),
        ["nat", "seg"], {"n": ("count", None)},
    ).to_pandas()  # bounded: nations × 5 rows

    nats = np.sort(agg["nat"].unique())
    counts = {int(a): [0] * len(SEGMENTS) for a in nats}
    for a, s, n in zip(agg["nat"], agg["seg"], agg["n"]):
        counts[int(a)][int(s)] = int(n)
    rows = []
    for a in nats:
        c1, c2, c3, c4, c5 = counts[int(a)]
        n = c1 + c2 + c3 + c4 + c5
        t1, t2, t3, t4, t5 = (
            0.0 if c == 0 else float(c) * math.log(float(c))
            for c in (c1, c2, c3, c4, c5)
        )
        h = math.log(float(n)) - (t1 + t2 + t3 + t4 + t5) / float(n)
        rows.append((int(a), n, h))
    return pd.DataFrame(rows, columns=["c_nationkey", "n_cust", "entropy"])


def _sql_segment_entropy() -> str:
    cs = [
        f"CAST(SUM(CASE WHEN c_mktsegment = '{s}' THEN 1 ELSE 0 END)"
        f" AS BIGINT) AS c{i + 1}"
        for i, s in enumerate(SEGMENTS)
    ]
    ts = [
        f"(CASE WHEN c{i} = 0 THEN 0.0"
        f" ELSE CAST(c{i} AS DOUBLE) * ln(CAST(c{i} AS DOUBLE)) END)"
        for i in range(1, 6)
    ]
    return f"""
WITH c AS (SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
                  {', '.join(cs)},
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM customer GROUP BY 1)
SELECT c_nationkey, n AS n_cust,
       ln(CAST(n AS DOUBLE))
         - ({' + '.join(ts)}) / CAST(n AS DOUBLE) AS entropy
FROM c
"""


SQL_SEGMENT_ENTROPY = _sql_segment_entropy()


def q_tile_mk_trend(sf_dir: str):
    """Mann–Kendall trend per tile over weekly event counts — the
    nonparametric sibling of the OLS tile_trend (the ArcGIS
    emerging-hot-spot primitive): S = Σ_{i<j} sign(n_j − n_i) over the
    tile's present weeks, pure int64. Plan: two-phase (tile, week)
    counts → driver-bounded dense pivot (≤ tiles × weeks rows — weeks
    are single digits) → vectorized pair loop across ALL tiles at once.
    SQL twin: week self-join + SUM(sign)."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "ts"])

    def tile_week(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        xi = (eid * HASH_LON) % 360000
        yi = (eid * HASH_LAT) % 180000
        return pa.table({"tile": (xi // 11250) * 32 + yi // 5625,
                         "week": us // (7 * 86_400_000_000)})

    agg = runtime.group_agg(
        ev.map_batches(tile_week, batch_format="pyarrow", zero_copy_batch=True),
        ["tile", "week"], {"n": ("count", None)},
    ).to_pandas()  # bounded: tiles × single-digit weeks

    tiles_v = agg["tile"].to_numpy().astype(np.int64)
    weeks_v = agg["week"].to_numpy().astype(np.int64)
    n_v = agg["n"].to_numpy().astype(np.int64)
    ut = np.unique(tiles_v)
    uw = np.unique(weeks_v)
    ti = np.searchsorted(ut, tiles_v)
    wi = np.searchsorted(uw, weeks_v)
    dense = np.zeros((ut.size, uw.size), np.int64)
    present = np.zeros((ut.size, uw.size), bool)
    dense[ti, wi] = n_v
    present[ti, wi] = True
    s = np.zeros(ut.size, np.int64)
    nw = present.sum(1).astype(np.int64)
    for i in range(uw.size):
        for j in range(i + 1, uw.size):
            both = present[:, i] & present[:, j]
            s += np.where(both, np.sign(dense[:, j] - dense[:, i]), 0)
    return pd.DataFrame({
        "tile": ut, "n_weeks": nw, "mk_s": s,
    }).sort_values("tile").reset_index(drop=True)


SQL_TILE_MK_TREND = f"""
WITH p AS (
  SELECT ((((event_id * {HASH_LON}) % 360000) // 11250) * 32
          + ((event_id * {HASH_LAT}) % 180000) // 5625) AS tile,
         epoch_us(ts) // {7 * 86_400_000_000} AS week
  FROM events),
a AS (SELECT tile, week, CAST(COUNT(*) AS BIGINT) AS n
      FROM p GROUP BY 1, 2),
w AS (SELECT tile, CAST(COUNT(*) AS BIGINT) AS n_weeks FROM a GROUP BY 1),
s AS (SELECT x.tile,
             CAST(COALESCE(SUM(CASE WHEN y.n > x.n THEN 1
                                    WHEN y.n < x.n THEN -1
                                    ELSE 0 END), 0) AS BIGINT) AS mk_s
      FROM a x LEFT JOIN a y ON y.tile = x.tile AND y.week > x.week
      GROUP BY 1)
SELECT w.tile, w.n_weeks, COALESCE(s.mk_s, 0) AS mk_s
FROM w JOIN s ON s.tile = w.tile
"""


SURPRISAL_SCALE = 1_000_000


def q_lm_surprisal(sf_dir: str):
    """Unigram-LM surprisal score per document — the perplexity-proxy
    quality filter: Σ over token occurrences of
    ⌊SCALE·(ln T − ln cf_t)⌋ (cf = corpus term frequency, T = total
    occurrences). The floor runs ONCE PER DISTINCT TOKEN (bounded vocab,
    driver-side libm — segment-entropy discipline), making every per-doc
    term an int64, so the distributed doc sums are order-free and
    bit-exact vs SQL. Plan: tf rows → two-phase cf → broadcast token
    surprisal ints → per-doc integer dot + two-phase Sum."""
    import math
    import re

    import pandas as pd

    from georay.runtime import table_from_pandas

    word_re = re.compile(r"[\w']+", re.UNICODE)
    tf_schema = pa.schema([("doc_id", pa.int64()), ("w", pa.string()),
                           ("tf", pa.int64())])

    def tf_rows(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df["text"].str.findall(word_re).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        out = pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy()[row], "w": toks.to_numpy(),
        }).groupby(["doc_id", "w"], as_index=False).size()
        return table_from_pandas(out.rename(columns={"size": "tf"}),
                                 schema=tf_schema)

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tf = docs.map_batches(tf_rows, batch_format="pandas").materialize()

    cf = runtime.group_agg(
        tf, "w", {"cf": ("sum", "tf")}
    ).to_pandas()  # bounded: vocabulary

    words = cf["w"].to_numpy()
    cfv = cf["cf"].to_numpy().astype(np.int64)
    order = np.argsort(words, kind="quicksort")
    words, cfv = words[order], cfv[order]
    t_total = int(cfv.sum())
    lt = math.log(float(t_total))
    su = np.array([
        math.floor(SURPRISAL_SCALE * (lt - math.log(float(c))))
        for c in cfv
    ], dtype=np.int64)
    vocab = runtime.broadcast((words, su))

    def score(t: pa.Table) -> pa.Table:
        ws, sus = vocab()
        w = np.asarray(t["w"].to_pylist())
        v = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = sus[np.searchsorted(ws, w)]
        return pa.table({"doc_id": t["doc_id"], "vs": v * s, "tf": v})

    return runtime.group_agg(
        tf.map_batches(score, batch_format="pyarrow", zero_copy_batch=True),
        "doc_id",
        {"surprisal_scaled": ("sum", "vs"), "n_tokens": ("sum", "tf")},
    )


SQL_LM_SURPRISAL = rf"""
WITH toks AS (SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w
              FROM documents),
tf AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS tf
       FROM toks GROUP BY doc_id, w),
cf AS (SELECT w, CAST(SUM(tf) AS BIGINT) AS cf FROM tf GROUP BY w),
tt AS (SELECT CAST(SUM(cf) AS BIGINT) AS t FROM cf),
s AS (SELECT w, CAST(FLOOR({SURPRISAL_SCALE} * (ln(CAST(t AS DOUBLE))
                     - ln(CAST(cf AS DOUBLE)))) AS BIGINT) AS su
      FROM cf CROSS JOIN tt)
SELECT tf.doc_id,
       CAST(SUM(tf * su) AS BIGINT) AS surprisal_scaled,
       CAST(SUM(tf) AS BIGINT) AS n_tokens
FROM tf JOIN s USING (w) GROUP BY 1
"""


def q_auc_mwu(sf_dir: str):
    """Mann–Whitney U ≡ ROC-AUC of order value as a classifier of URGENT
    vs LOW priority — tie-aware, integer-exact: U2 = Σ c₁(v)·(2·cum₂(v⁻)
    + c₂(v)) doubles the half-credit ties away, AUC = U2 / (2·n₁·n₂) is
    the one float division. Same bounded two-phase histogram as ks_drift;
    the ML-evaluation twin of the KS drift statistic. SQL: window cumsum
    replay."""
    import pandas as pd

    orders = _read(sf_dir, "orders",
                   columns=["o_orderpriority", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        pri = np.asarray(t["o_orderpriority"].to_pylist())
        keep = (pri == "1-URGENT") | (pri == "5-LOW")
        dollars = (np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64) // 10_000)
        flag = np.where(pri[keep] == "1-URGENT", np.int64(1), np.int64(2))
        return pa.table({"val": dollars[keep], "flag": flag})

    hist = runtime.group_agg(
        orders.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["val", "flag"], {"n": ("count", None)},
    ).to_pandas()  # bounded: binned dollar values × 2

    val = hist["val"].to_numpy().astype(np.int64)
    flg = hist["flag"].to_numpy().astype(np.int64)
    n = hist["n"].to_numpy().astype(np.int64)
    uvals = np.unique(val)
    c1 = np.zeros(uvals.size, np.int64)
    c2 = np.zeros(uvals.size, np.int64)
    pos = np.searchsorted(uvals, val)
    np.add.at(c1, pos[flg == 1], n[flg == 1])
    np.add.at(c2, pos[flg == 2], n[flg == 2])
    cum2 = np.cumsum(c2)
    cum2_prev = cum2 - c2
    u2 = int((c1 * (2 * cum2_prev + c2)).sum())
    n1, n2 = int(c1.sum()), int(c2.sum())
    return pd.DataFrame({
        "n1": [np.int64(n1)], "n2": [np.int64(n2)],
        "u2": [np.int64(u2)],
        "auc_den": [np.int64(2) * n1 * n2],
        "auc": [float(u2) / float(2 * n1 * n2)],
    })


SQL_AUC_MWU = """
WITH v AS (
  SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) // 10000 AS val,
         CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 2 END AS g
  FROM orders WHERE o_orderpriority IN ('1-URGENT', '5-LOW')),
h AS (SELECT val,
             CAST(COUNT(*) FILTER (g = 1) AS BIGINT) AS c1,
             CAST(COUNT(*) FILTER (g = 2) AS BIGINT) AS c2
      FROM v GROUP BY 1),
w AS (SELECT val, c1, c2,
             CAST(SUM(c2) OVER (ORDER BY val) - c2 AS BIGINT) AS cum2_prev
      FROM h),
s AS (SELECT CAST(SUM(c1) AS BIGINT) AS n1, CAST(SUM(c2) AS BIGINT) AS n2,
             CAST(SUM(c1 * (2 * cum2_prev + c2)) AS BIGINT) AS u2
      FROM w)
SELECT n1, n2, u2, CAST(2 * n1 * n2 AS BIGINT) AS auc_den,
       CAST(u2 AS DOUBLE) / CAST(2 * n1 * n2 AS DOUBLE) AS auc
FROM s
"""


def q_ks_by_type(sf_dir: str):
    """Per-event-type weekday-vs-weekend value-distribution drift
    (ops.sketch.ks2_by_group — the grouped two-sample KS: integer
    cross-multiplied CDF deviations, segmented driver finalize over the
    bounded histogram). SQL twin: window cumsums partitioned by type +
    QUALIFY argmax."""
    from georay.ops import sketch as sketch_ops

    ev = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        dow = (us // 86_400_000_000 + 4) % 7
        val = np.round(t["value"].to_numpy(zero_copy_only=False)
                       * 100).astype(np.int64) // 100
        return pa.table({
            "event_type": t["event_type"],
            "val": val,
            "flag": np.where(dow < 5, np.int64(1), np.int64(2)),
        })

    binned = ev.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    return sketch_ops.ks2_by_group(binned, "event_type", "val", "flag")


SQL_KS_BY_TYPE = """
WITH v AS (
  SELECT event_type,
         CAST(ROUND(value * 100) AS BIGINT) // 100 AS val,
         CASE WHEN (epoch_us(ts) // 86400000000 + 4) % 7 < 5
              THEN 1 ELSE 2 END AS g
  FROM events),
h AS (SELECT event_type, val,
             CAST(COUNT(*) FILTER (g = 1) AS BIGINT) AS c1,
             CAST(COUNT(*) FILTER (g = 2) AS BIGINT) AS c2
      FROM v GROUP BY 1, 2),
w AS (SELECT event_type, val,
             CAST(SUM(c1) OVER (PARTITION BY event_type ORDER BY val)
               AS BIGINT) AS cum1,
             CAST(SUM(c2) OVER (PARTITION BY event_type ORDER BY val)
               AS BIGINT) AS cum2,
             CAST(SUM(c1) OVER (PARTITION BY event_type) AS BIGINT) AS n1,
             CAST(SUM(c2) OVER (PARTITION BY event_type) AS BIGINT) AS n2
      FROM h),
d AS (SELECT event_type, val, n1, n2,
             abs(n2 * cum1 - n1 * cum2) AS dev
      FROM w WHERE n1 > 0 AND n2 > 0)
SELECT event_type, n1, n2, CAST(dev AS BIGINT) AS ks_num,
       CAST(n1 * n2 AS BIGINT) AS ks_den, val AS arg_value,
       CAST(dev AS DOUBLE) / CAST(n1 * n2 AS DOUBLE) AS ks
FROM d
QUALIFY ROW_NUMBER() OVER (PARTITION BY event_type
                           ORDER BY dev DESC, val) = 1
"""


def q_chi2_independence(sf_dir: str):
    """Chi-square independence test of event type × hour-of-day — per
    cell the deviation is cross-multiplied to integers:
    dev_num = (o·N − r·c)², dev_den = N·r·c (o observed, r/c marginals,
    N total), so every comparison-worthy quantity is int64-exact and the
    per-cell float contribution dev_num/dev_den is the one division.
    Plan: ONE two-phase (type, hour) count — marginals derive from the
    bounded table driver-side (moran shape). Overflow contract: the
    squared deviation (≲ (r·c)²/N²·skew) must fit int64 — pre-scale
    counts beyond ~10⁹ rows. SQL twin: window marginals over the same
    crosstab."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_type", "ts"])

    def type_hour(t: pa.Table) -> pa.Table:
        hr = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
              // 3_600_000_000) % 24
        return pa.table({"et": t["event_type"], "hr": hr})

    agg = runtime.group_agg(
        ev.map_batches(type_hour, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["et", "hr"], {"o": ("count", None)},
    ).to_pandas()  # bounded: types × 24 cells

    et = agg["et"].to_numpy()
    hr = agg["hr"].to_numpy().astype(np.int64)
    o = agg["o"].to_numpy().astype(np.int64)
    n_tot = int(o.sum())
    r = {k: int(o[et == k].sum()) for k in np.unique(et)}
    c = {int(h): int(o[hr == h].sum()) for h in np.unique(hr)}
    rows = []
    for e_i, h_i, o_i in zip(et, hr, o):
        rv, cv = r[e_i], c[int(h_i)]
        num = (int(o_i) * n_tot - rv * cv) ** 2
        den = n_tot * rv * cv
        rows.append((e_i, int(h_i), int(o_i), np.int64(num),
                     np.int64(den), float(num) / float(den)))
    out = pd.DataFrame(rows, columns=["et", "hr", "o", "dev_num",
                                      "dev_den", "contrib"])
    return out.sort_values(["et", "hr"]).reset_index(drop=True)


SQL_CHI2_INDEPENDENCE = """
WITH x AS (SELECT event_type AS et,
                  (epoch_us(ts) // 3600000000) % 24 AS hr,
                  CAST(COUNT(*) AS BIGINT) AS o
           FROM events GROUP BY 1, 2),
m AS (SELECT et, hr, o,
             CAST(SUM(o) OVER (PARTITION BY et) AS BIGINT) AS r,
             CAST(SUM(o) OVER (PARTITION BY hr) AS BIGINT) AS c,
             CAST(SUM(o) OVER () AS BIGINT) AS n
      FROM x)
SELECT et, hr, o,
       CAST((o * n - r * c) * (o * n - r * c) AS BIGINT) AS dev_num,
       CAST(n * r * c AS BIGINT) AS dev_den,
       CAST((o * n - r * c) * (o * n - r * c) AS DOUBLE)
         / CAST(n * r * c AS DOUBLE) AS contrib
FROM m
"""


def q_ann_recall(sf_dir: str):
    """Retrieval-quality EVALUATION as a pipeline: per-query recall@5 of
    the SQ8-quantized ranking against the exact cosine ranking — both
    rankings run distributed, overlap counts via one pack-key groupby
    (pair present on both sides ⟺ count 2), zero-overlap queries kept by
    a left join against the query list. Integer counts end to end."""
    import pyarrow.compute as pc
    import ray

    from georay.ops import similarity as sim

    q_table = _read_table(sf_dir, "embeddings",
                          columns=["vec_id", "embedding"])
    mask = (q_table["vec_id"].to_numpy() % 10) == 0
    q_ids = q_table["vec_id"].to_numpy()[mask].astype(np.int64)
    q_mat = sim.emb_matrix(q_table["embedding"])[mask]
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cos = sim.brute_topk(emb, q_ids, q_mat, k=ANN_K).select_columns(
        ["query_id", "neighbor_id"])
    sq8 = sim.sq8_topk(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        query_mask_mod=10, k=ANN_K,
    ).select_columns(["query_id", "neighbor_id"])

    def to_pack(t: pa.Table) -> pa.Table:
        q = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["neighbor_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"pk": q * (np.int64(1) << 32) + n})

    both = cos.map_batches(to_pack, batch_format="pyarrow").union(
        sq8.map_batches(to_pack, batch_format="pyarrow"))

    matched = runtime.group_agg(both, "pk", {"n": ("count", None)})

    def overlap(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        return pa.table({"query_id": pk[n == 2] >> 32})

    counts = runtime.group_agg(
        matched.map_batches(overlap, batch_format="pyarrow",
                            zero_copy_batch=True),
        "query_id", {"ov": ("count", None)},
    )

    all_q = ray.data.from_arrow(pa.table({"query_id": q_ids}))
    joined = runtime.join(all_q, counts, "left_outer", on=("query_id",))

    def fill(t: pa.Table) -> pa.Table:
        return pa.table({
            "query_id": t["query_id"],
            "n_overlap": pc.fill_null(t["ov"], 0).cast(pa.int64()),
        })

    return joined.map_batches(fill, batch_format="pyarrow")


SQL_ANN_RECALL = f"""
WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id % 10 = 0),
cosr AS (
  SELECT query_id, neighbor_id FROM (
    SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
           ROW_NUMBER() OVER (
             PARTITION BY q.vec_id
             ORDER BY list_cosine_similarity(q.embedding, e.embedding)
               DESC, e.vec_id) AS rank
    FROM q JOIN embeddings e ON e.vec_id <> q.vec_id
  ) WHERE rank <= {ANN_K}),
ex AS (SELECT vec_id, unnest(embedding) AS v,
              unnest(range(len(embedding))) AS dim
       FROM embeddings),
r AS (SELECT dim, MIN(v) AS mn, MAX(v) AS mx FROM ex GROUP BY dim),
qt AS (SELECT vec_id, dim,
         CASE WHEN mx > mn THEN
           LEAST(GREATEST(CAST(FLOOR((CAST(v AS DOUBLE) - mn) * 255.0
                                     / (CAST(mx AS DOUBLE) - mn)) AS BIGINT),
                          0), 255)
         ELSE 0 END AS qv
       FROM ex JOIN r USING (dim)),
s AS (SELECT a.vec_id AS query_id, b.vec_id AS neighbor_id,
             CAST(SUM(a.qv * b.qv) AS BIGINT) AS score
      FROM qt a JOIN qt b ON a.dim = b.dim AND b.vec_id <> a.vec_id
      WHERE a.vec_id % 10 = 0
      GROUP BY 1, 2),
sqr AS (
  SELECT query_id, neighbor_id FROM (
    SELECT query_id, neighbor_id,
           ROW_NUMBER() OVER (PARTITION BY query_id
                              ORDER BY score DESC, neighbor_id) AS rank
    FROM s) WHERE rank <= {ANN_K}),
ov AS (SELECT c.query_id, CAST(COUNT(*) AS BIGINT) AS n_overlap
       FROM cosr c JOIN sqr s2
         ON s2.query_id = c.query_id AND s2.neighbor_id = c.neighbor_id
       GROUP BY 1)
SELECT q.vec_id AS query_id,
       CAST(COALESCE(ov.n_overlap, 0) AS BIGINT) AS n_overlap
FROM q LEFT JOIN ov ON ov.query_id = q.vec_id
"""


def q_cell_gini(sf_dir: str):
    """Gini coefficient of the order-count distribution over occupied
    BITS_TILE cells — the spatial-skew scalar that predicts shuffle
    hot-spots. Integer-exact via the sorted-counts identity
    G_num = Σᵢ (2i − K − 1)·n₍ᵢ₎ (ascending, i 1-based), G_den = K·Σn;
    the ≤2^bits histogram finalizes driver-side (moran_i shape), ONE
    float division at the end. SQL twin: ROW_NUMBER over the same
    ascending (n, cell) order."""
    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    ).to_pandas()  # bounded: ≤ 2^BITS_TILE occupied cells

    n = agg["n"].to_numpy().astype(np.int64)
    cellv = agg["cell"].to_numpy().astype(np.int64)
    order = np.lexsort((cellv, n))  # ascending (n, cell): deterministic
    ns = n[order]
    k = np.int64(ns.size)
    i = np.arange(1, k + 1, dtype=np.int64)
    g_num = int(((2 * i - k - 1) * ns).sum())
    g_den = int(k * ns.sum())
    return pd.DataFrame({
        "k_cells": [np.int64(k)], "total": [np.int64(ns.sum())],
        "gini_num": [np.int64(g_num)], "gini_den": [np.int64(g_den)],
        "gini": [float(g_num) / float(g_den)],
    })


SQL_CELL_GINI = f"""
WITH c AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM orders GROUP BY 1, 2),
r AS (SELECT n, CAST(ROW_NUMBER() OVER (ORDER BY n, x * 32 + y) AS BIGINT)
               AS i,
             CAST(COUNT(*) OVER () AS BIGINT) AS k
      FROM c),
s AS (SELECT CAST(MAX(k) AS BIGINT) AS k, CAST(SUM(n) AS BIGINT) AS total,
             CAST(SUM((2 * i - k - 1) * n) AS BIGINT) AS g_num
      FROM r)
SELECT k AS k_cells, total, g_num AS gini_num,
       CAST(k * total AS BIGINT) AS gini_den,
       CAST(g_num AS DOUBLE) / CAST(k * total AS DOUBLE) AS gini
FROM s
"""


FREQ_SUPPORT = 3


def q_frequent_pairs(sf_dir: str):
    """Market-basket mining: item pairs co-purchased in ≥3 orders
    (ops.pairs.frequent_pairs — real A-priori pruning: infrequent items
    broadcast-dropped BEFORE any pair expands, pair emission bucketized
    by basket hash with the logged giant-basket cap, only pair COUNTS
    shuffle). SQL twin: distinct-basket self-join + HAVING."""
    from georay.ops import pairs as pairs_ops

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    return pairs_ops.frequent_pairs(li, "l_orderkey", "l_partkey",
                                    min_support=FREQ_SUPPORT)


SQL_FREQUENT_PAIRS = f"""
WITH b AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
pr AS (SELECT a.p AS pa, b2.p AS pb
       FROM b a JOIN b b2 ON a.o = b2.o AND a.p < b2.p)
SELECT pa AS item_a, pb AS item_b, CAST(COUNT(*) AS BIGINT) AS support
FROM pr GROUP BY 1, 2 HAVING COUNT(*) >= {FREQ_SUPPORT}
"""


def q_assoc_rules(sf_dir: str):
    """Association rules from the frequent pairs: both directions a→b
    with integer-rational confidence (support/ante_sup) and lift
    (support·N over ante_sup·cons_sup) — numerator/denominator emitted
    as exact int64 (no float ever decides), plus the one float conf.
    Item supports and the basket count broadcast (bounded vocab);
    composition over ops.pairs.frequent_pairs."""
    from georay.ops import pairs as pairs_ops

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    distinct = runtime.group_agg(li, ["l_orderkey", "l_partkey"])
    sup = runtime.group_agg(
        distinct, "l_partkey", {"n": ("count", None)}
    ).to_pandas()  # bounded: item vocabulary
    n_baskets = runtime.group_agg(
        distinct.select_columns(["l_orderkey"]), "l_orderkey"
    ).count()

    sk = sup["l_partkey"].to_numpy().astype(np.int64)
    so = np.argsort(sk, kind="quicksort")
    supports = runtime.broadcast(
        (sk[so], sup["n"].to_numpy().astype(np.int64)[so]))

    fp = pairs_ops.frequent_pairs(li, "l_orderkey", "l_partkey",
                                  min_support=FREQ_SUPPORT)

    def rules(t: pa.Table) -> pa.Table:
        keys, vals = supports()
        a = t["item_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["item_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["support"].to_numpy(zero_copy_only=False).astype(np.int64)
        ante = np.concatenate([a, b])
        cons = np.concatenate([b, a])
        ss = np.concatenate([s, s])
        sa = vals[np.searchsorted(keys, ante)]
        sc = vals[np.searchsorted(keys, cons)]
        return pa.table({
            "ante": ante, "cons": cons, "support": ss,
            "ante_sup": sa,
            "lift_num": ss * np.int64(n_baskets),
            "lift_den": sa * sc,
            "conf": ss.astype(np.float64) / sa.astype(np.float64),
        })

    return fp.map_batches(rules, batch_format="pyarrow",
                          zero_copy_batch=True)


SQL_ASSOC_RULES = f"""
WITH b AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
sup AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS s FROM b GROUP BY 1),
nb AS (SELECT CAST(COUNT(DISTINCT o) AS BIGINT) AS nb FROM b),
pr AS (SELECT a.p AS pa, b2.p AS pb
       FROM b a JOIN b b2 ON a.o = b2.o AND a.p < b2.p),
fp AS (SELECT pa, pb, CAST(COUNT(*) AS BIGINT) AS support
       FROM pr GROUP BY 1, 2 HAVING COUNT(*) >= {FREQ_SUPPORT}),
r AS (SELECT pa AS ante, pb AS cons, support FROM fp
      UNION ALL SELECT pb, pa, support FROM fp)
SELECT ante, cons, support, sa.s AS ante_sup,
       CAST(support * nb AS BIGINT) AS lift_num,
       CAST(sa.s * sc.s AS BIGINT) AS lift_den,
       CAST(support AS DOUBLE) / CAST(sa.s AS DOUBLE) AS conf
FROM r JOIN sup sa ON sa.p = r.ante JOIN sup sc ON sc.p = r.cons
CROSS JOIN nb
"""


def q_hll_tile_users(sf_dir: str):
    """Per-TILE HyperLogLog distinct-user sketches — the sketch family
    partitioned by a spatial key (ops.sketch.hll_registers_by): events
    map to 32×32 tiles via their synthetic capture points, and each
    tile's register contents merge with an idempotent max, so the
    exchange is O(tiles × 256 × batches) no matter how many events flow.
    Oracle compares REGISTER CONTENTS per tile via the shared bit-exact
    splitmix64."""
    from georay.ops import sketch as sketch_ops

    ev = _read(sf_dir, "events", columns=["event_id", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        xi = (eid * HASH_LON) % 360000
        yi = (eid * HASH_LAT) % 180000
        return pa.table({
            "tile": (xi // 11250) * 32 + yi // 5625,
            "user_id": t["user_id"],
        })

    tiles_ds = ev.map_batches(prep, batch_format="pyarrow",
                              zero_copy_batch=True)
    return sketch_ops.hll_registers_by(tiles_ds, "tile", "user_id", p=8)


SQL_HLL_TILE_USERS = f"""
WITH b AS (
  SELECT (((event_id * {HASH_LON}) % 360000) // 11250) * 32
         + ((event_id * {HASH_LAT}) % 180000) // 5625 AS tile,
         user_id
  FROM events),
h AS (SELECT tile, hu FROM {sketch_sql_subquery('b', 'user_id')}),
r AS (SELECT tile, CAST(hu >> 56 AS BIGINT) AS register,
             hu % CAST({1 << 56} AS UBIGINT) AS w FROM h)
SELECT tile, register,
       MAX(CASE WHEN w = 0 THEN 57
           ELSE CAST(bit_count(xor(w,
                CAST((CAST(w AS HUGEINT) + {(1 << 56) - 1}) % {1 << 56}
                     AS UBIGINT)
           )) AS BIGINT) END) AS max_rank
FROM r GROUP BY tile, register
"""


def q_ks_drift(sf_dir: str):
    """Two-sample KS drift statistic between the order-value (whole
    dollars) distributions of URGENT vs LOW priority orders —
    ops.sketch.ks2_statistic: cross-multiplied integer CDF deviation
    max|n₂·cum₁ − n₁·cum₂| with smallest-value tiebreak, ONE float
    division at the end. SQL twin: window cumsums + ROW_NUMBER argmax."""
    from georay.ops import sketch as sketch_ops

    orders = _read(sf_dir, "orders",
                   columns=["o_orderpriority", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        pri = np.asarray(t["o_orderpriority"].to_pylist())
        keep = (pri == "1-URGENT") | (pri == "5-LOW")
        dollars = (np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64) // 10_000)
        return pa.table({
            "val": dollars[keep],  # $100 bins: bounded distinct values
            "flag": np.where(pri[keep] == "1-URGENT", np.int64(1),
                             np.int64(2)),
        })

    binned = orders.map_batches(prep, batch_format="pyarrow",
                                zero_copy_batch=True)
    return sketch_ops.ks2_statistic(binned, "val", "flag")


SQL_KS_DRIFT = """
WITH v AS (
  SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) // 10000 AS val,
         CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 2 END AS g
  FROM orders WHERE o_orderpriority IN ('1-URGENT', '5-LOW')),
h AS (SELECT val,
             CAST(COUNT(*) FILTER (g = 1) AS BIGINT) AS c1,
             CAST(COUNT(*) FILTER (g = 2) AS BIGINT) AS c2
      FROM v GROUP BY 1),
t AS (SELECT CAST(SUM(c1) AS BIGINT) AS n1,
             CAST(SUM(c2) AS BIGINT) AS n2 FROM h),
w AS (SELECT val,
             CAST(SUM(c1) OVER (ORDER BY val) AS BIGINT) AS cum1,
             CAST(SUM(c2) OVER (ORDER BY val) AS BIGINT) AS cum2
      FROM h),
d AS (SELECT val, abs(n2 * cum1 - n1 * cum2) AS dev
      FROM w CROSS JOIN t)
SELECT n1, n2, CAST(dev AS BIGINT) AS ks_num,
       CAST(n1 * n2 AS BIGINT) AS ks_den,
       val AS arg_value,
       CAST(dev AS DOUBLE) / CAST(n1 * n2 AS DOUBLE) AS ks
FROM d CROSS JOIN t
QUALIFY ROW_NUMBER() OVER (ORDER BY dev DESC, val) = 1
"""


HUFF_SCALE = 1_000_000
HUFF_SHARE_SCALE = 1_000_000
HUFF_RADIUS = 8.0  # degrees (== ACCESS_RADIUS, defined later in-file)


def q_huff_shares(sf_dir: str):
    """Huff gravity-model market shares: each customer splits patronage
    over suppliers within 8° proportionally to ⌊scale·cap/(1+d²)⌋
    (ops.knn.huff_shares — the per-DEMAND denominator is big-side, so it
    stays a Dataset and hash-joins back to the recomputed pair stream:
    the structural complement of 2SFCA's broadcast small-side
    denominator). All-integer shares."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)
    supp = _small_points(
        _read_table(sf_dir, "supplier", columns=["s_suppkey"]),
        "s_suppkey", BITS_JOIN,
    )
    sk = supp["s_suppkey"].to_numpy().astype(np.int64)
    supp = supp.append_column("cap", pa.array(sk % 20 + 1))
    return knn_ops.huff_shares(
        cust, supp, bits=BITS_JOIN, radius=ACCESS_RADIUS,
        demand_id="c_custkey", supply_id="s_suppkey", cap_col="cap",
        scale=HUFF_SCALE, share_scale=HUFF_SHARE_SCALE,
    )


SQL_HUFF_SHARES = f"""
WITH c AS ({{c_cte}}),
     s AS ({{s_cte}}),
pairs AS (
  SELECT c.c_custkey, s.s_suppkey,
         CAST(FLOOR(CAST({HUFF_SCALE} * s.cap AS DOUBLE)
                    / (1.0 + (c.lon - s.lon) * (c.lon - s.lon)
                           + (c.lat - s.lat) * (c.lat - s.lat)))
           AS BIGINT) AS w
  FROM c JOIN s
    ON (c.lon - s.lon) * (c.lon - s.lon)
     + (c.lat - s.lat) * (c.lat - s.lat)
       <= {HUFF_RADIUS} * {HUFF_RADIUS}),
den AS (SELECT c_custkey, CAST(SUM(w) AS BIGINT) AS den
        FROM pairs GROUP BY 1)
SELECT p.c_custkey, p.s_suppkey, w,
       (CAST({HUFF_SHARE_SCALE} AS BIGINT) * w) // d.den AS share_scaled
FROM pairs p JOIN den d USING (c_custkey)
""".format(
    c_cte=_sql_point_cte("customer", "c_custkey", BITS_JOIN),
    s_cte=_sql_point_cte("supplier", "s_suppkey", BITS_JOIN,
                         extra_cols=", s_suppkey % 20 + 1 AS cap"),
)


def q_hits_suppliers(sf_dir: str):
    """HITS hubs-and-authorities, two UNROLLED iterations over the
    bipartite customer→supplier purchase graph (distinct edges from
    orders ⋈ lineitem): auth₁ = in-degree, hub₁ = Σ auth₁ over a
    customer's suppliers, auth₂ = Σ hub₁ — all integer, no normalization,
    so every value is exact and the SQL twin unrolls the same two rounds
    (kmeans/pagerank discipline). Plan: ONE fact-fact hash join builds
    edges (batch-local dedup first), auth₁ broadcasts (supplier-sized),
    hub₁ stays distributed and hash-joins back (customer-sized — the big
    side never collects)."""
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])

    def li_dedup(t: pa.Table) -> pa.Table:
        out = t.group_by(["l_orderkey", "l_suppkey"]).aggregate([])
        return out.rename_columns(["o_orderkey", "s"])

    pairs = li.map_batches(li_dedup, batch_format="pyarrow",
                           zero_copy_batch=True)
    joined = runtime.join(pairs, orders, "inner", on=("o_orderkey",))

    def edge(t: pa.Table) -> pa.Table:
        return pa.table({"c": t["o_custkey"], "s": t["s"]})

    edges = runtime.group_agg(  # global distinct
        joined.map_batches(edge, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["c", "s"],
    )

    a1 = runtime.group_agg(
        edges, "s", {"auth1": ("count", None)}
    ).to_pandas()  # supplier-sized: the designated small side
    sk = a1["s"].to_numpy().astype(np.int64)
    so = np.argsort(sk, kind="quicksort")
    auth1 = runtime.broadcast(
        (sk[so], a1["auth1"].to_numpy().astype(np.int64)[so]))

    def auth(t: pa.Table) -> pa.Table:
        keys, vals = auth1()
        s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"c": t["c"], "a": vals[np.searchsorted(keys, s)]})

    h1 = runtime.group_agg(
        edges.map_batches(auth, batch_format="pyarrow", zero_copy_batch=True),
        "c", {"hub1": ("sum", "a")},
    )

    ej = runtime.join(edges, h1, "inner", on=("c",))
    a2 = runtime.group_agg(ej, "s", {"auth2": ("sum", "hub1")})

    def finalize(t: pa.Table) -> pa.Table:
        keys, vals = auth1()
        s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "s_suppkey": s,
            "auth1": vals[np.searchsorted(keys, s)],
            "auth2": t["auth2"],
        })

    return a2.map_batches(finalize, batch_format="pyarrow")


SQL_HITS_SUPPLIERS = """
WITH e AS (SELECT DISTINCT o_custkey AS c, l_suppkey AS s
           FROM orders JOIN lineitem ON l_orderkey = o_orderkey),
a1 AS (SELECT s, CAST(COUNT(*) AS BIGINT) AS auth1 FROM e GROUP BY 1),
h1 AS (SELECT c, CAST(SUM(auth1) AS BIGINT) AS hub1
       FROM e JOIN a1 USING (s) GROUP BY 1),
a2 AS (SELECT s, CAST(SUM(hub1) AS BIGINT) AS auth2
       FROM e JOIN h1 USING (c) GROUP BY 1)
SELECT a1.s AS s_suppkey, auth1, auth2
FROM a1 JOIN a2 ON a2.s = a1.s
"""


def q_iqr_outliers(sf_dir: str):
    """Tukey-fence outliers per order priority: orders whose exact
    integer REVENUE (Σ cents·(100−pct) over lineitems — sums of uniforms,
    so the distribution has real tails, unlike the uniform totalprice)
    falls 1.5·IQR outside [q25, q75]. Quartiles come from the
    distributed-histogram quantile op (bit-matches quantile_disc),
    broadcast to a vectorized integer filter (2·dev > 3·IQR cross-
    multiplies the 1.5 away, so no float ever decides membership).
    Output: the flagged orders with side −1 (low) / +1 (high)."""
    from georay.ops import sketch as sketch_ops

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def line_rev(t: pa.Table) -> pa.Table:
        cents_v = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        pct = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "rev": cents_v * (100 - pct)})

    rev = runtime.group_agg(
        li.map_batches(line_rev, batch_format="pyarrow",
                       zero_copy_batch=True),
        "o_orderkey", {"cents": ("sum", "rev")},
    )
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority"])
    oc = runtime.join(rev, orders, "inner", on=("o_orderkey",))

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "pri": t["o_orderpriority"],
            "cents": t["cents"],
        })

    oc = oc.map_batches(rename, batch_format="pyarrow",
                        zero_copy_batch=True)
    qdf = sketch_ops.grouped_quantiles(
        oc.select_columns(["pri", "cents"]), "pri", "cents",
        qs=(0.25, 0.75),
    ).to_pandas()  # bounded: one row per priority
    pri_keys = qdf["pri"].to_numpy()
    order = np.argsort(pri_keys, kind="quicksort")
    pri_keys = pri_keys[order]
    q25 = qdf["p25"].to_numpy()[order].astype(np.int64)
    q75 = qdf["p75"].to_numpy()[order].astype(np.int64)

    def flag(t: pa.Table) -> pa.Table:
        pri = np.asarray(t["pri"].to_pylist())
        c = t["cents"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(pri_keys, pri)
        lo, hi = q25[pos], q75[pos]
        iqr = hi - lo
        low = 2 * (lo - c) > 3 * iqr
        high = 2 * (c - hi) > 3 * iqr
        keep = low | high
        return pa.table({
            "o_orderkey": t["o_orderkey"].filter(pa.array(keep)),
            "pri": t["pri"].filter(pa.array(keep)),
            "cents": c[keep],
            "side": np.where(low[keep], np.int64(-1), np.int64(1)),
        })

    return oc.map_batches(flag, batch_format="pyarrow",
                          zero_copy_batch=True)


SQL_IQR_OUTLIERS = """
WITH rev AS (SELECT l_orderkey,
                    CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                             * (100 - CAST(ROUND(l_discount * 100)
                                           AS BIGINT))) AS BIGINT) AS cents
             FROM lineitem GROUP BY 1),
oc AS (SELECT o_orderkey, o_orderpriority AS pri, cents
       FROM orders JOIN rev ON l_orderkey = o_orderkey),
q AS (SELECT pri,
             CAST(quantile_disc(cents, 0.25) AS BIGINT) AS q25,
             CAST(quantile_disc(cents, 0.75) AS BIGINT) AS q75
      FROM oc GROUP BY 1)
SELECT o_orderkey, oc.pri, cents,
       CAST(CASE WHEN 2 * (q25 - cents) > 3 * (q75 - q25) THEN -1
                 ELSE 1 END AS BIGINT) AS side
FROM oc JOIN q ON q.pri = oc.pri
WHERE 2 * (q25 - cents) > 3 * (q75 - q25)
   OR 2 * (cents - q75) > 3 * (q75 - q25)
"""


def q_corr_qty_discount(sf_dir: str):
    """Pearson correlation of quantity vs discount-pct per return flag —
    the five moment sums (n, Σx, Σy, Σxx, Σyy, Σxy) are int64-exact
    two-phase partials, so only ONE float expression runs at the end:
    num/(sqrt(dx)·sqrt(dy)) with identical association order in numpy and
    SQL (moran_i discipline)."""
    import math

    import pandas as pd

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_discount"])

    def moments(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.round(t["l_discount"].to_numpy(zero_copy_only=False)
                     * 100).astype(np.int64)
        return pa.table({"l_returnflag": t["l_returnflag"], "x": x, "y": y,
                         "xx": x * x, "yy": y * y, "xy": x * y})

    agg = runtime.group_agg(
        li.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True),
        "l_returnflag",
        {"n": ("count", None), "sx": ("sum", "x"), "sy": ("sum", "y"),
         "sxx": ("sum", "xx"), "syy": ("sum", "yy"), "sxy": ("sum", "xy")},
    ).to_pandas()  # bounded: one row per return flag

    n = agg["n"].astype("int64")
    num = n * agg["sxy"] - agg["sx"] * agg["sy"]
    dx = n * agg["sxx"] - agg["sx"] ** 2
    dy = n * agg["syy"] - agg["sy"] ** 2
    corr = [float(a) / (math.sqrt(float(b)) * math.sqrt(float(c)))
            for a, b, c in zip(num, dx, dy)]
    return pd.DataFrame({
        "l_returnflag": agg["l_returnflag"], "n": n,
        "num": num.astype("int64"), "dx": dx.astype("int64"),
        "dy": dy.astype("int64"), "corr": corr,
    }).sort_values("l_returnflag").reset_index(drop=True)


SQL_CORR_QTY_DISCOUNT = """
WITH m AS (
  SELECT l_returnflag,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sx,
         CAST(SUM(CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT) AS sy,
         CAST(SUM(CAST(l_quantity AS BIGINT)
                  * CAST(l_quantity AS BIGINT)) AS BIGINT) AS sxx,
         CAST(SUM(CAST(ROUND(l_discount * 100) AS BIGINT)
                  * CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT)
           AS syy,
         CAST(SUM(CAST(l_quantity AS BIGINT)
                  * CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT)
           AS sxy
  FROM lineitem GROUP BY 1)
SELECT l_returnflag, n,
       CAST(n * sxy - sx * sy AS BIGINT) AS num,
       CAST(n * sxx - sx * sx AS BIGINT) AS dx,
       CAST(n * syy - sy * sy AS BIGINT) AS dy,
       CAST(n * sxy - sx * sy AS DOUBLE)
         / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
            * sqrt(CAST(n * syy - sy * sy AS DOUBLE))) AS corr
FROM m
"""


RRF_K = 10


def q_rrf_fusion(sf_dir: str):
    """Reciprocal-rank fusion of two retrieval rankings per query — exact
    cosine top-10 fused with SQ8 integer-quantized top-10
    (ops.similarity.rrf_fuse — integer ⌊1e9/(60+rank)⌋ terms, one Sum
    groupby, bucketized per-query top-k). The hybrid-retrieval staple,
    bit-exact end to end."""
    from georay.ops import similarity as sim

    q_table = _read_table(sf_dir, "embeddings",
                          columns=["vec_id", "embedding"])
    mask = (q_table["vec_id"].to_numpy() % 10) == 0
    q_ids = q_table["vec_id"].to_numpy()[mask]
    q_mat = sim.emb_matrix(q_table["embedding"])[mask]
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cos = sim.brute_topk(emb, q_ids, q_mat, k=RRF_K).select_columns(
        ["query_id", "neighbor_id", "rank"])
    sq8 = sim.sq8_topk(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        query_mask_mod=10, k=RRF_K,
    ).select_columns(["query_id", "neighbor_id", "rank"])
    return sim.rrf_fuse([cos, sq8], k=RRF_K)


SQL_RRF_FUSION = f"""
WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id % 10 = 0),
cosr AS (
  SELECT query_id, neighbor_id, rank FROM (
    SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
           CAST(ROW_NUMBER() OVER (
             PARTITION BY q.vec_id
             ORDER BY list_cosine_similarity(q.embedding, e.embedding)
               DESC, e.vec_id) AS BIGINT) AS rank
    FROM q JOIN embeddings e ON e.vec_id <> q.vec_id
  ) WHERE rank <= {RRF_K}),
ex AS (SELECT vec_id, unnest(embedding) AS v,
              unnest(range(len(embedding))) AS dim
       FROM embeddings),
r AS (SELECT dim, MIN(v) AS mn, MAX(v) AS mx FROM ex GROUP BY dim),
qt AS (SELECT vec_id, dim,
         CASE WHEN mx > mn THEN
           LEAST(GREATEST(CAST(FLOOR((CAST(v AS DOUBLE) - mn) * 255.0
                                     / (CAST(mx AS DOUBLE) - mn)) AS BIGINT),
                          0), 255)
         ELSE 0 END AS qv
       FROM ex JOIN r USING (dim)),
s AS (SELECT a.vec_id AS query_id, b.vec_id AS neighbor_id,
             CAST(SUM(a.qv * b.qv) AS BIGINT) AS score
      FROM qt a JOIN qt b ON a.dim = b.dim AND b.vec_id <> a.vec_id
      WHERE a.vec_id % 10 = 0
      GROUP BY 1, 2),
sqr AS (
  SELECT query_id, neighbor_id, rank FROM (
    SELECT query_id, neighbor_id,
           CAST(ROW_NUMBER() OVER (PARTITION BY query_id
                                   ORDER BY score DESC, neighbor_id)
             AS BIGINT) AS rank
    FROM s) WHERE rank <= {RRF_K}),
u AS (SELECT query_id, neighbor_id, 1000000000 // (60 + rank) AS t
      FROM cosr
      UNION ALL
      SELECT query_id, neighbor_id, 1000000000 // (60 + rank) FROM sqr),
f AS (SELECT query_id, neighbor_id, CAST(SUM(t) AS BIGINT) AS rrf_score
      FROM u GROUP BY 1, 2)
SELECT query_id, neighbor_id, rrf_score, fused_rank FROM (
  SELECT f.*, CAST(ROW_NUMBER() OVER (
    PARTITION BY query_id ORDER BY rrf_score DESC, neighbor_id)
    AS BIGINT) AS fused_rank
  FROM f)
WHERE fused_rank <= {RRF_K}
"""


ST_EPS = 45_000            # milli-degree grid units
ST_WINDOW_US = 21_600_000_000  # 6 hours


def q_spatiotemporal_pairs(sf_dir: str):
    """Spatiotemporal contact join: event pairs from DIFFERENT users
    within 45k grid units AND 6 hours (ops.trajectory.spatiotemporal_pairs
    — 3-D (x, y, t) bucketing, probe side expanded to the 27-cell
    neighborhood, ONE hash join, report-once from the smaller id's unique
    home bucket so no dedup shuffle exists). SQL twin: DuckDB IEJoin on
    the raw inequality predicate."""
    from georay.ops import trajectory as traj

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "us": pa.array(us),
            "xi": pa.array((eid * HASH_LON) % 360000),
            "yi": pa.array((eid * HASH_LAT) % 180000),
        })

    pts = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return traj.spatiotemporal_pairs(
        pts, "event_id", "user_id", "us", "xi", "yi",
        eps=ST_EPS, window_us=ST_WINDOW_US,
    )


SQL_SPATIOTEMPORAL_PAIRS = f"""
WITH p AS (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         (event_id * {HASH_LON}) % 360000 AS xi,
         (event_id * {HASH_LAT}) % 180000 AS yi
  FROM events)
SELECT a.event_id AS event_a, b.event_id AS event_b,
       (a.xi - b.xi) * (a.xi - b.xi)
     + (a.yi - b.yi) * (a.yi - b.yi) AS d2,
       abs(a.us - b.us) AS dt_us
FROM p a JOIN p b
  ON a.event_id < b.event_id AND a.user_id <> b.user_id
 AND abs(a.us - b.us) <= {ST_WINDOW_US}
 AND (a.xi - b.xi) * (a.xi - b.xi)
   + (a.yi - b.yi) * (a.yi - b.yi) <= {ST_EPS * ST_EPS}
"""


STAY_EPS = 80_000  # milli-degree grid units (~22% of legs are slow)


def q_stay_points(sf_dir: str):
    """Stay-point (dwell) detection per user: maximal runs of consecutive
    slow legs (squared step ≤ STAY_EPS², exact int) over the synthetic
    milli-degree trajectory, one row per stay with bounding timestamps
    (ops.trajectory.stay_points — bucketized gaps-and-islands, no per-key
    Python call). SQL twin: LAG legs → running fast-leg count as island
    id → per-island MIN/MAX."""
    from georay.ops import trajectory as traj

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"],
            "us": pa.array(us),
            "event_id": t["event_id"],
            "xi": pa.array((eid * HASH_LON) % 360000),
            "yi": pa.array((eid * HASH_LAT) % 180000),
        })

    pts = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return traj.stay_points(pts, "user_id", "us", "event_id", "xi", "yi",
                            eps2=STAY_EPS * STAY_EPS)


SQL_STAY_POINTS = f"""
WITH p AS (
  SELECT user_id, epoch_us(ts) AS us, event_id,
         (event_id * {HASH_LON}) % 360000 AS xi,
         (event_id * {HASH_LAT}) % 180000 AS yi
  FROM events),
l AS (SELECT user_id, us, event_id, xi, yi,
        LAG(xi) OVER w AS px, LAG(yi) OVER w AS py, LAG(us) OVER w AS pus
      FROM p WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)),
f AS (SELECT user_id, us, pus,
        CASE WHEN (xi - px) * (xi - px) + (yi - py) * (yi - py)
                  <= {STAY_EPS * STAY_EPS} THEN 1 ELSE 0 END AS slow,
        ROW_NUMBER() OVER (
          PARTITION BY user_id ORDER BY us, event_id) AS rn
      FROM l WHERE px IS NOT NULL),
g AS (SELECT user_id, us, pus, slow,
        SUM(1 - slow) OVER (PARTITION BY user_id ORDER BY rn) AS grp
      FROM f)
SELECT user_id, CAST(MIN(pus) AS BIGINT) AS start_us,
       CAST(MAX(us) AS BIGINT) AS end_us,
       CAST(COUNT(*) + 1 AS BIGINT) AS n_pts,
       CAST(MAX(us) - MIN(pus) AS BIGINT) AS dur_us
FROM g WHERE slow = 1 GROUP BY user_id, grp
"""


CONTAIN_NUM, CONTAIN_DEN, CONTAIN_MIN = 19, 20, 30


def q_containment_join(sf_dir: str):
    """Directional near-dup: every ORDERED doc pair (A, B) with
    |A∩B| ≥ 0.95·|A| and |A| ≥ 30 tokens — "A is contained in B"
    (ops.setsim.containment_join — asymmetric prefix filter: A-prefix
    tokens ⋈ B-FULL tokens under the rarest-first order, exact packed-set
    verify; the case the symmetric Jaccard join cannot express). Oracle:
    plain token self-join with the integer threshold."""
    from georay.ops import setsim as setsim_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return setsim_ops.containment_join(
        docs, CONTAIN_NUM, CONTAIN_DEN, min_tokens=CONTAIN_MIN,
    )


SQL_CONTAINMENT_JOIN = rf"""
WITH tk AS (
  SELECT DISTINCT doc_id, w FROM (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w
    FROM documents)),
sz AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM tk GROUP BY 1),
i AS (SELECT a.doc_id AS ia, b.doc_id AS ib, CAST(COUNT(*) AS BIGINT) AS it
      FROM tk a JOIN tk b ON a.w = b.w AND a.doc_id <> b.doc_id
      GROUP BY 1, 2)
SELECT ia AS id_a, ib AS id_b, it AS n_inter, s.n AS n_a,
       CAST(it AS DOUBLE) / CAST(s.n AS DOUBLE) AS containment
FROM i JOIN sz s ON s.doc_id = i.ia
WHERE it * {CONTAIN_DEN} >= {CONTAIN_NUM} * s.n AND s.n >= {CONTAIN_MIN}
"""


def q_cusum_changepoint(sf_dir: str):
    """CUSUM change-point per user over their daily event-count series:
    the day at max |n·cum_t − t·T| (mean cross-multiplied away — all
    int64, earliest-day tiebreak). Plan: two-phase (user, day) counts →
    ops.window.cusum_changepoint (ONE ``runtime.by_key`` exchange, segmented
    numpy across keys — no per-key Python call). SQL twin: window
    cumulative sums + ROW_NUMBER argmax."""
    from georay.ops import window as window_ops

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def user_day(t: pa.Table) -> pa.Table:
        day = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86_400_000_000)
        return pa.table({"user_id": t["user_id"].cast(pa.int64()),
                         "day": day})

    daily = runtime.group_agg(
        ev.map_batches(user_day, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "day"], {"x": ("count", None)},
    )
    return window_ops.cusum_changepoint(daily, "user_id", "day", "x")


SQL_CUSUM_CHANGEPOINT = """
WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events),
a AS (SELECT user_id, day, CAST(COUNT(*) AS BIGINT) AS x
      FROM e GROUP BY 1, 2),
w AS (SELECT user_id, day,
             SUM(x) OVER (PARTITION BY user_id ORDER BY day) AS cum,
             ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY day) AS t,
             COUNT(*) OVER (PARTITION BY user_id) AS nd,
             SUM(x) OVER (PARTITION BY user_id) AS tot
      FROM a),
d AS (SELECT user_id, day, nd, tot,
             abs(nd * cum - t * tot) AS adev
      FROM w),
r AS (SELECT d.*, ROW_NUMBER() OVER (
        PARTITION BY user_id ORDER BY adev DESC, day) AS rk
      FROM d)
SELECT user_id, CAST(nd AS BIGINT) AS n_pts, CAST(tot AS BIGINT) AS total,
       day AS cp_t, CAST(adev AS BIGINT) AS max_absdev
FROM r WHERE rk = 1
"""


def q_median_acctbal(sf_dir: str):
    """Per-nation EXACT interpolated median of customer account balance
    (cents), emitted as the integer 2×median = lo+hi middle order stats
    (ops.sketch.grouped_median2 — distributed histograms, no sort, no
    full-column collection; no float division on either side). The SQL
    twin replays the percentile_cont rule with window functions."""
    from georay.ops import sketch as sketch_ops

    cust = _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_nationkey": t["c_nationkey"].cast(pa.int64()),
            "cents": np.round(
                t["c_acctbal"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64),
        })

    return sketch_ops.grouped_median2(
        cust.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        "c_nationkey", "cents",
    )


SQL_MEDIAN_ACCTBAL = """
WITH v AS (SELECT CAST(c_nationkey AS BIGINT) AS g,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) AS v
           FROM customer),
r AS (SELECT g, v, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v) AS rn,
             COUNT(*) OVER (PARTITION BY g) AS n
      FROM v),
s AS (SELECT g, CAST(MAX(n) AS BIGINT) AS n_rows,
             CAST(SUM(CASE WHEN rn = (n + 1) // 2 OR rn = (n + 2) // 2
                           THEN v ELSE 0 END) AS BIGINT) AS s
      FROM r GROUP BY g)
SELECT g AS c_nationkey, n_rows,
       CASE WHEN n_rows % 2 = 1 THEN 2 * s ELSE s END AS median2
FROM s
"""


def q_flow_direction(sf_dir: str):
    """D8 flow direction over the customer-count raster at BITS_TILE
    (counts as a synthetic DEM): each occupied cell drains to its lowest
    strictly-lower occupied 8-neighbor, compass-index tiebreak, pits = −1
    (ops.tiles.flow_direction — scatter the packed value·8+opp(dir) to
    valid neighbors, ONE Min groupby, LEFT join back to occupied cells so
    isolated cells stay pits). The SQL twin replays the packed argmin over
    the wraparound self-join."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    pts = spatial.points_with_cells(cust, "c_custkey", BITS_TILE, xy=False)
    raster = tiles.count_by(pts.select_columns(["cell"]), "cell")
    out = tiles.flow_direction(raster, BITS_TILE, cell_col="cell",
                               value_col="n")

    def finalize(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        return pa.table({
            "tile_x": pa.array(x), "tile_y": pa.array(y),
            "n": t["n"], "dir": t["dir"], "nb_min": t["nb_min"],
        })

    return out.map_batches(finalize, batch_format="pyarrow")


SQL_FLOW_DIRECTION = f"""
WITH pts AS (
  SELECT {sql_x(sql_lon('c_custkey'), 5)} AS x,
         {sql_y(sql_lat('c_custkey'), 5)} AS y
  FROM customer),
g AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY 1, 2),
nb AS (
  SELECT a.x, a.y,
         MIN(b.n * 8 + CASE
           WHEN (b.x - a.x + 32) % 32 = 0  AND b.y - a.y = 1  THEN 0
           WHEN (b.x - a.x + 32) % 32 = 1  AND b.y - a.y = 1  THEN 1
           WHEN (b.x - a.x + 32) % 32 = 1  AND b.y - a.y = 0  THEN 2
           WHEN (b.x - a.x + 32) % 32 = 1  AND b.y - a.y = -1 THEN 3
           WHEN (b.x - a.x + 32) % 32 = 0  AND b.y - a.y = -1 THEN 4
           WHEN (b.x - a.x + 32) % 32 = 31 AND b.y - a.y = -1 THEN 5
           WHEN (b.x - a.x + 32) % 32 = 31 AND b.y - a.y = 0  THEN 6
           ELSE 7 END) AS minpack
  FROM g a JOIN g b
    ON ((b.x - a.x + 32) % 32) IN (0, 1, 31)
   AND b.y BETWEEN a.y - 1 AND a.y + 1
   AND NOT (b.x = a.x AND b.y = a.y)
  GROUP BY 1, 2)
SELECT a.x AS tile_x, a.y AS tile_y, a.n,
       CAST(CASE WHEN nb.minpack IS NULL OR nb.minpack // 8 >= a.n THEN -1
                 ELSE nb.minpack % 8 END AS BIGINT) AS dir,
       CAST(COALESCE(nb.minpack // 8, -1) AS BIGINT) AS nb_min
FROM g a LEFT JOIN nb ON nb.x = a.x AND nb.y = a.y
"""


VOLUME_NATIONS = (3, 8)  # both nations have suppliers even at sf0.001
VOLUME_Y0_US = 820_454_400_000_000  # 1996-01-01
VOLUME_Y1_US = 852_076_800_000_000  # 1997-01-01
VOLUME_Y2_US = 883_612_800_000_000  # 1998-01-01


def q_volume_shipping(sf_dir: str):
    """TPC-H Q7 shape — shipping volume between two nations by year: a
    5-table join where BOTH fact sides are pre-filtered before the single
    big hash join. Customer (nation-filtered) is broadcast
    once; orders stream through it to (o_orderkey, cust_nat);
    lineitem filters the 2-year window, maps l_suppkey through the tiny
    supplier dim, and carries one integer revenue per row; ONE hash join
    + asymmetric-pair filter + tiny 3-key ``group_agg`` sum finish. Revenue
    in exact integer units, so combine order never matters."""
    n0, n1 = VOLUME_NATIONS
    nat = _read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nat["n_nationkey"].to_numpy().astype(np.int64),
                       nat["n_name"].to_pylist()))

    cust = _read_table(sf_dir, "customer",
                       columns=["c_custkey", "c_nationkey"])
    ck = cust["c_custkey"].to_numpy().astype(np.int64)
    cn = cust["c_nationkey"].to_numpy().astype(np.int64)
    sel = (cn == n0) | (cn == n1)
    ck, cn = ck[sel], cn[sel]
    o = np.argsort(ck, kind="quicksort")
    customers = runtime.broadcast({"k": ck[o], "n": cn[o]})

    supp = _read_table(sf_dir, "supplier",
                       columns=["s_suppkey", "s_nationkey"])
    sk = supp["s_suppkey"].to_numpy().astype(np.int64)
    sn = supp["s_nationkey"].to_numpy().astype(np.int64)
    ssel = (sn == n0) | (sn == n1)
    sk, sn = sk[ssel], sn[ssel]
    so = np.argsort(sk, kind="quicksort")
    sk, sn = sk[so], sn[so]

    def _lookup(sorted_keys, values, probe):
        if sorted_keys.size == 0:
            return np.zeros(probe.size, bool), np.zeros(probe.size, np.int64)
        pos = np.searchsorted(sorted_keys, probe)
        posc = np.minimum(pos, sorted_keys.size - 1)
        hit = (pos < sorted_keys.size) & (sorted_keys[posc] == probe)
        return hit, values[posc]

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def ord_map(t: pa.Table) -> pa.Table:
        b = customers()
        oc = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, v = _lookup(b["k"], b["n"], oc)
        return pa.table({"o_orderkey": ok[hit], "cust_nat": v[hit]})

    orders_b = orders.map_batches(ord_map, batch_format="pyarrow",
                                  zero_copy_batch=True)

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount", "l_shipdate"])

    def li_rev(t: pa.Table) -> pa.Table:
        us = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (us >= VOLUME_Y0_US) & (us < VOLUME_Y2_US)
        lsk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        hit, snat = _lookup(sk, sn, lsk)
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)[keep][hit]
        year = np.where(us[keep][hit] < VOLUME_Y1_US, np.int64(1996),
                        np.int64(1997))
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False)[keep][hit] * 100).astype(np.int64)
        pct = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False)[keep][hit] * 100).astype(np.int64)
        return pa.table({
            "o_orderkey": okey,
            "supp_nat": np.where(snat[hit] == n1, np.int64(n1), np.int64(n0)),
            "l_year": year,
            "p_rev": cents * (100 - pct),
        })

    rows = li.map_batches(li_rev, batch_format="pyarrow",
                          zero_copy_batch=True)
    joined = runtime.join(rows, orders_b, "inner", on=("o_orderkey",))

    names = np.array([name_of[n0], name_of[n1]])

    def cross_nation(t: pa.Table) -> pa.Table:
        snat = t["supp_nat"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnat = t["cust_nat"].to_numpy(zero_copy_only=False).astype(np.int64)
        yr = t["l_year"].to_numpy(zero_copy_only=False).astype(np.int64)
        rev = t["p_rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = snat != cnat
        is1 = (snat[m] == n1).astype(np.int64)
        return pa.table({
            "supp_nation": names[is1], "cust_nation": names[1 - is1],
            "l_year": yr[m], "p_rev": rev[m],
        })

    # group_agg's one output block is sorted by its keys
    return runtime.group_agg(
        joined.map_batches(cross_nation, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["supp_nation", "cust_nation", "l_year"],
        {"revenue_u": ("sum", "p_rev")},
    )


SQL_VOLUME_SHIPPING = f"""
SELECT supp_nation, cust_nation, l_year,
       CAST(SUM(vol) AS BIGINT) AS revenue_u
FROM (
  SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
         CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)) AS vol
  FROM lineitem, orders, customer, supplier, nation n1, nation n2
  WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
    AND l_suppkey = s_suppkey
    AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
    AND ((n1.n_nationkey = {VOLUME_NATIONS[0]}
          AND n2.n_nationkey = {VOLUME_NATIONS[1]})
      OR (n1.n_nationkey = {VOLUME_NATIONS[1]}
          AND n2.n_nationkey = {VOLUME_NATIONS[0]}))
    AND l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1998-01-01')
GROUP BY 1, 2, 3
ORDER BY 1, 2, 3
"""


ACCESS_RADIUS = 8.0  # degrees
ACCESS_SCALE = 1_000_000


def q_accessibility(sf_dir: str):
    """2SFCA (two-step floating catchment area) accessibility: customers
    are demand (pop = key%50+1), suppliers supply (cap = key%20+1); each
    supplier's capacity is split over the demand population within 8°,
    each customer sums the integer-scaled ratios of its in-range
    suppliers (ops.knn.accessibility_2sfca — two broadcast ring joins,
    O(|supply|) driver rows, int64-exact terms so combine order never
    matters)."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    cust = spatial.points_with_cells(cust, "c_custkey", BITS_JOIN, xy=False)

    def add_pop(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("pop", pa.array(k % 50 + 1))

    cust = cust.map_batches(add_pop, batch_format="pyarrow")
    supp = _small_points(
        _read_table(sf_dir, "supplier", columns=["s_suppkey"]),
        "s_suppkey", BITS_JOIN,
    )
    sk = supp["s_suppkey"].to_numpy().astype(np.int64)
    supp = supp.append_column("cap", pa.array(sk % 20 + 1))
    return knn_ops.accessibility_2sfca(
        cust, supp, bits=BITS_JOIN, radius=ACCESS_RADIUS,
        demand_id="c_custkey", pop_col="pop",
        supply_id="s_suppkey", cap_col="cap", scale=ACCESS_SCALE,
    )


SQL_ACCESSIBILITY = f"""
WITH c AS ({{c_cte}}),
     s AS ({{s_cte}}),
pairs AS (
  SELECT c.c_custkey, c.pop, s.s_suppkey, s.cap
  FROM c JOIN s
    ON (c.lon - s.lon) * (c.lon - s.lon)
     + (c.lat - s.lat) * (c.lat - s.lat)
       <= {ACCESS_RADIUS} * {ACCESS_RADIUS}),
den AS (SELECT s_suppkey, CAST(SUM(pop) AS BIGINT) AS den
        FROM pairs GROUP BY 1),
term AS (
  SELECT p.c_custkey,
         (CAST({ACCESS_SCALE} AS BIGINT) * p.cap) // d.den AS t
  FROM pairs p JOIN den d USING (s_suppkey))
SELECT c_custkey,
       CAST(SUM(t) AS BIGINT) AS access_scaled,
       CAST(COUNT(*) AS BIGINT) AS n_fac
FROM term GROUP BY c_custkey
""".format(
    c_cte=_sql_point_cte("customer", "c_custkey", BITS_JOIN,
                         extra_cols=", c_custkey % 50 + 1 AS pop"),
    s_cte=_sql_point_cte("supplier", "s_suppkey", BITS_JOIN,
                         extra_cols=", s_suppkey % 20 + 1 AS cap"),
)


UNION_W_US = 3_600_000_000  # 1-hour activity window per event


def q_interval_union(sf_dir: str):
    """Total ACTIVE time per (user, event_type): each event opens a 1-hour
    window; overlaps merge (interval-union sweep). Constant width makes
    the union a closed form over sorted starts — W + Σ min(gap, W) — so
    one ``runtime.by_key`` cogroup + segmented diffs computes every key
    in one vectorized pass; the SQL twin is the LAG window of the same
    formula. All int64 microseconds."""
    from georay.ops import buckets as bk

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        # pack (user, type) into one int key for bucketing: type index via
        # lexicographic rank among the 5 known types
        types = np.array(["click", "error", "purchase", "signup", "view"])
        ti = np.searchsorted(types, et)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = uid * 8 + ti
        return pa.table({
            "key": key,
            "us": t["ts"].cast(pa.int64()),
        })

    out_schema = pa.schema([("key", pa.int64()), ("n_events", pa.int64()),
                            ("union_us", pa.int64())])

    def per_bucket(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy()
        us = g["us"].to_numpy()
        order = np.lexsort((us, key))
        k = key[order]
        s = us[order]
        starts = bk.segment_starts(k)
        counts = bk.segment_counts(starts, k.size)
        gap = np.minimum(np.diff(s, prepend=s[:1] if s.size else s),
                         UNION_W_US)
        gap[starts] = UNION_W_US  # each key's first window contributes W
        sums = np.add.reduceat(gap, starts) if k.size else \
            np.empty(0, np.int64)
        return pa.table({
            "key": k[starts], "n_events": counts.astype(np.int64),
            "union_us": sums.astype(np.int64)})

    agg = runtime.by_key(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "key", per_bucket, out_schema)

    def finalize(t: pa.Table) -> pa.Table:
        types = np.array(["click", "error", "purchase", "signup", "view"])
        key = t["key"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": key // 8, "event_type": types[key % 8],
            "n_events": t["n_events"], "union_us": t["union_us"],
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


SQL_INTERVAL_UNION = f"""
WITH e AS (SELECT user_id, event_type, epoch_us(ts) AS us FROM events),
g AS (SELECT user_id, event_type, us,
             us - LAG(us) OVER (PARTITION BY user_id, event_type
                                ORDER BY us) AS gap
      FROM e)
SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN gap IS NULL THEN {UNION_W_US}
                     WHEN gap < {UNION_W_US} THEN gap
                     ELSE {UNION_W_US} END) AS BIGINT) AS union_us
FROM g GROUP BY 1, 2
"""


EMB_SCALE = 1_000_000


def q_label_centroids(sf_dir: str):
    """Per-class embedding centroids (nearest-class-mean / prototype
    classifier): per-(label, dim) integer sums of µ-scaled components —
    float32 components are pre-scaled to exact int64 so the sums are
    order-independent, and the caller's centroid = sum / (n·scale) is the
    one float division. Each vector emits one (label, dim) row per
    component; ``group_agg``'s per-batch partials leave O(labels × 64 ×
    batches) rows for the combine."""

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding",
                                               "label"])

    from georay.ops.similarity import emb_matrix  # bound pre-closure:
    # worker code must not import georay lazily (foreign-cwd, CLAUDE.md)

    def components(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = emb_matrix(t["embedding"]).astype(np.float64)
        n, d = m.shape
        return pa.table({
            "label": np.repeat(lab, d),
            "dim": np.tile(np.arange(d, dtype=np.int64), n),
            "s": np.round(m * EMB_SCALE).astype(np.int64).reshape(-1),
        })

    return runtime.group_agg(
        emb.map_batches(components, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["label", "dim"], {"sum_scaled": ("sum", "s"), "n": ("count", None)},
    )


SQL_LABEL_CENTROIDS = f"""
WITH ex AS (
  SELECT CAST(label AS BIGINT) AS label,
         unnest(range(len(embedding))) AS dim,
         unnest(embedding) AS v
  FROM embeddings)
SELECT label, dim,
       CAST(SUM(CAST(round(CAST(v AS DOUBLE) * {EMB_SCALE}) AS BIGINT))
         AS BIGINT) AS sum_scaled,
       CAST(COUNT(*) AS BIGINT) AS n
FROM ex GROUP BY 1, 2
"""


def q_raster_convolve(sf_dir: str):
    """5×5 integer binomial-kernel convolution over the customer raster at
    BITS_TILE (ops.tiles.kernel_convolve — weighted scatter with per-batch
    partial combine; plain-grid clamp, no lon wrap). SQL twin: bounded
    self-join with the separable CASE weight product."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    pts = spatial.points_with_cells(cust, "c_custkey", BITS_TILE, xy=False)
    raster = tiles.count_by(pts.select_columns(["cell"]), "cell")
    w1 = {0: 6, 1: 4, 2: 1}
    kernel = [(dx, dy, w1[abs(dx)] * w1[abs(dy)])
              for dx in (-2, -1, 0, 1, 2) for dy in (-2, -1, 0, 1, 2)]
    out = tiles.kernel_convolve(raster, BITS_TILE, kernel)

    def finalize(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        return pa.table({"tile_x": pa.array(x.astype(np.int64)),
                         "tile_y": pa.array(y.astype(np.int64)),
                         "n": t["n"], "conv": t["conv"]})

    return out.map_batches(finalize, batch_format="pyarrow")


SQL_RASTER_CONVOLVE = f"""
WITH pts AS (
  SELECT {sql_x(sql_lon('c_custkey'), 5)} AS x,
         {sql_y(sql_lat('c_custkey'), 5)} AS y
  FROM customer),
g AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY x, y)
SELECT a.x AS tile_x, a.y AS tile_y, a.n,
       CAST(SUM(b.n
         * (CASE abs(a.x - b.x) WHEN 0 THEN 6 WHEN 1 THEN 4 ELSE 1 END)
         * (CASE abs(a.y - b.y) WHEN 0 THEN 6 WHEN 1 THEN 4 ELSE 1 END))
         AS BIGINT) AS conv
FROM g a JOIN g b
  ON b.x BETWEEN a.x - 2 AND a.x + 2
 AND b.y BETWEEN a.y - 2 AND a.y + 2
GROUP BY a.x, a.y, a.n
"""


def q_doc_rarity(sf_dir: str):
    """Per-document rarity (integer surprisal proxy): Σ over token
    occurrences of (N − df) — the corpus-level quality/novelty signal,
    exact with no floats (ops.text.rarity_scores: materialized tf rows,
    two-phase df, term hash join, per-doc two-phase Sum)."""
    from georay.ops import text as text_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = docs.count()
    return text_ops.rarity_scores(docs, n_docs=n_docs)


SQL_DOC_RARITY = r"""
WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w
              FROM documents),
tf AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS tf
       FROM toks GROUP BY doc_id, w),
df AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY w),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS nd FROM documents)
SELECT tf.doc_id, CAST(SUM(tf) AS BIGINT) AS n_tokens,
       CAST(SUM(tf * (nd - df)) AS BIGINT) AS rarity
FROM tf JOIN df USING (w) CROSS JOIN n
GROUP BY tf.doc_id
"""


def q_map_match(sf_dir: str):
    """Map matching: every customer point snapped to its nearest supplier
    road segment (same synthetic 64×64 segments as segment_crossings) by
    EXACT rational squared distance — clamped-projection formula
    multiplied through to integers, cross-multiplied argmin, ties to the
    smallest segment id (ops.knn.nearest_segment; segments broadcast once,
    no shuffle). The SQL twin is the NOT EXISTS anti-join over the same
    integer CASE arithmetic."""
    from georay.ops import knn as knn_ops2

    sup = _read_table(sf_dir, "supplier", columns=["s_suppkey"])
    k = sup["s_suppkey"].to_numpy().astype(np.int64)
    segs = pa.table({
        "sid": k,
        "x1": (k * 29 % 193) % 64, "y1": (k * 53 % 193) % 64,
        "x2": (k * 71 % 193) % 64, "y2": (k * 13 % 193) % 64,
    })
    cust = _read(sf_dir, "customer", columns=["c_custkey"])

    def pts(t: pa.Table) -> pa.Table:
        c = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"pid": c, "px": (c * 37 % 191) % 64,
                         "py": (c * 53 % 191) % 64})

    points = cust.map_batches(pts, batch_format="pyarrow",
                              zero_copy_batch=True)
    return knn_ops2.nearest_segment(points, segs, "pid", "px", "py")


SQL_MAP_MATCH = """
WITH pts AS (
  SELECT c_custkey AS pid, (c_custkey * 37 % 191) % 64 AS px,
         (c_custkey * 53 % 191) % 64 AS py
  FROM customer),
s AS (
  SELECT s_suppkey AS sid,
         (s_suppkey * 29 % 193) % 64 AS x1, (s_suppkey * 53 % 193) % 64 AS y1,
         (s_suppkey * 71 % 193) % 64 AS x2, (s_suppkey * 13 % 193) % 64 AS y2
  FROM supplier),
d AS (
  SELECT pid, sid,
         (px - x1) * (x2 - x1) + (py - y1) * (y2 - y1) AS tn,
         (x2 - x1) * (x2 - x1) + (y2 - y1) * (y2 - y1) AS td,
         (px - x1) * (px - x1) + (py - y1) * (py - y1) AS w2,
         (px - x2) * (px - x2) + (py - y2) * (py - y2) AS u2
  FROM pts CROSS JOIN s),
e AS (
  SELECT pid, sid,
         CASE WHEN td = 0 THEN w2
              WHEN tn <= 0 THEN w2 * td
              WHEN tn >= td THEN u2 * td
              ELSE w2 * td - tn * tn END AS num,
         CASE WHEN td = 0 THEN 1 ELSE td END AS den
  FROM d)
SELECT a.pid, a.sid, a.num AS d2_num, a.den AS d2_den
FROM e a
WHERE NOT EXISTS (
  SELECT 1 FROM e b
  WHERE b.pid = a.pid
    AND (b.num * a.den < a.num * b.den
         OR (b.num * a.den = a.num * b.den AND b.sid < a.sid)))
"""


BFS_HOPS = 4


def q_grid_bfs(sf_dir: str):
    """Grid cost-distance: BFS hop distance from SOURCE tiles (those
    holding a c_custkey % 97 == 0 customer) across occupied tiles under
    queen adjacency with lon wrap / lat clamp (ops.tiles.grid_bfs —
    iterative frontier scatter → join, MIN(hop) collapse; no anti-join
    per round). The SQL twin is a bounded recursive CTE over the same
    wraparound adjacency."""

    cust = _read(sf_dir, "customer", columns=["c_custkey"])

    def cell_src(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table({
            "cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64),
            "src": (key % 97 == 0).astype(np.int64),
        })

    raster = runtime.group_agg(
        cust.map_batches(cell_src, batch_format="pyarrow",
                         zero_copy_batch=True),
        "cell", {"n": ("count", None), "n_src": ("sum", "src")},
    )
    out = tiles.grid_bfs(raster, BITS_TILE, max_hops=BFS_HOPS)

    def finalize(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        return pa.table({"tile_x": pa.array(x.astype(np.int64)),
                         "tile_y": pa.array(y.astype(np.int64)),
                         "hops": t["hops"]})

    return out.map_batches(finalize, batch_format="pyarrow")


SQL_GRID_BFS = f"""
WITH RECURSIVE g AS (
  SELECT {sql_x(sql_lon('c_custkey'), 5)} AS x,
         {sql_y(sql_lat('c_custkey'), 5)} AS y,
         SUM(CASE WHEN c_custkey % 97 = 0 THEN 1 ELSE 0 END) AS ns
  FROM customer GROUP BY 1, 2),
r AS (
  SELECT x, y, 0 AS hop FROM g WHERE ns > 0
  UNION
  SELECT b.x, b.y, r.hop + 1
  FROM r JOIN g b
    ON ((b.x - r.x + 32) % 32) IN (0, 1, 31)
   AND b.y BETWEEN r.y - 1 AND r.y + 1
   AND NOT (b.x = r.x AND b.y = r.y)
  WHERE r.hop < {BFS_HOPS})
SELECT x AS tile_x, y AS tile_y, CAST(MIN(hop) AS BIGINT) AS hops
FROM r GROUP BY 1, 2
"""


def q_burst_days(sf_dir: str):
    """Burst (anomaly) detection on per-user daily activity: flag every
    day whose event count exceeds TWICE the user's own mean across their
    active days — the threshold compare is cross-multiplied
    (n·D > 2·S) so it is pure int64, no float mean. Plan: per-(user, day)
    two-phase counts → per-user (active_days, total) rollup of those
    aggregate rows → hash join back + filter; raw events shuffle nowhere."""

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def user_day(t: pa.Table) -> pa.Table:
        day = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86_400_000_000)
        return pa.table({"user_id": t["user_id"].cast(pa.int64()),
                         "day": day})

    daily = runtime.group_agg(
        ev.map_batches(user_day, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "day"], {"n": ("count", None)},
    )
    per_user = runtime.group_agg(
        daily, "user_id",
        {"d_days": ("count", None), "s_total": ("sum", "n")},
    )
    joined = runtime.join(daily, per_user, "inner", on=("user_id",))

    def flag(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False)
        d = t["d_days"].to_numpy(zero_copy_only=False)
        s = t["s_total"].to_numpy(zero_copy_only=False)
        keep = n * d > 2 * s
        return pa.table({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False)[keep],
            "day": t["day"].to_numpy(zero_copy_only=False)[keep],
            "n": n[keep],
        })

    return joined.map_batches(flag, batch_format="pyarrow",
                              zero_copy_batch=True)


SQL_BURST_DAYS = """
WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events),
a AS (SELECT user_id, day, CAST(COUNT(*) AS BIGINT) AS n
      FROM e GROUP BY 1, 2),
u AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS d,
             CAST(SUM(n) AS BIGINT) AS s
      FROM a GROUP BY 1)
SELECT a.user_id, a.day, a.n
FROM a JOIN u USING (user_id)
WHERE a.n * u.d > 2 * u.s
"""


def q_bearing_octants(sf_dir: str):
    """Movement-direction histogram: every per-user trajectory leg (same
    synthetic milli-degree points as trajectory_stats) classified into a
    compass octant with pure integer sign/compare logic — no trig on a
    grid — and counted globally (ops.trajectory.leg_octants, one bucketed
    cogroup shuffle). The SQL twin is a LAG window + the verbatim-ordered
    CASE."""
    from georay.ops import trajectory as traj

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"],
            "us": pa.array(us),
            "event_id": t["event_id"],
            "xi": pa.array((eid * HASH_LON) % 360000),
            "yi": pa.array((eid * HASH_LAT) % 180000),
        })

    pts = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return traj.leg_octants(pts, "user_id", "us", "event_id", "xi", "yi")


SQL_BEARING_OCTANTS = f"""
WITH p AS (
  SELECT user_id, epoch_us(ts) AS us, event_id,
         (event_id * {HASH_LON}) % 360000 AS xi,
         (event_id * {HASH_LAT}) % 180000 AS yi
  FROM events),
legs AS (
  SELECT xi - LAG(xi) OVER w AS dx, yi - LAG(yi) OVER w AS dy
  FROM p WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)),
oc AS (
  SELECT CASE
    WHEN dx = 0 AND dy = 0 THEN 8
    WHEN dx > 0 AND dy >= 0 AND dx > dy THEN 0
    WHEN dy > 0 AND dx > 0 THEN 1
    WHEN dy > 0 AND dx = 0 THEN 2
    WHEN dy > 0 AND -dx < dy THEN 2
    WHEN dy > 0 THEN 3
    WHEN dx < 0 AND dy = 0 THEN 4
    WHEN dx < 0 AND dy < 0 AND dx < dy THEN 4
    WHEN dy < 0 AND dx < 0 THEN 5
    WHEN dy < 0 AND dx = 0 THEN 6
    WHEN dy < 0 AND dx < -dy THEN 6
    ELSE 7 END AS octant
  FROM legs WHERE dx IS NOT NULL)
SELECT CAST(octant AS BIGINT) AS octant, CAST(COUNT(*) AS BIGINT) AS n
FROM oc GROUP BY octant
"""


def q_attribution(sf_dir: str):
    """LAST-TOUCH marketing attribution: every purchase event's cents are
    credited to the same user's most recent non-purchase event at-or-before
    it (ops.asof.asof_join — bucketed cogroup, no per-key Python), then
    revenue rolls up by touch type. The join-backs for payload columns are
    exact 1:1 because (user_id, ts) is unique in the events table (checked
    at all scales); purchases with no prior touch drop (inner asof), same
    as the SQL twin's MAX-ts formulation."""
    import pyarrow.compute as pc

    from georay.ops import asof as asof_ops

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type",
                                          "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "us": t["ts"].cast(pa.int64()),
            "event_type": t["event_type"],
            "cents": pc.cast(pc.round(pc.multiply(
                pc.cast(t["value"], pa.float64()), 100.0)), pa.int64()),
        })

    ev = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    purchases = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["user_id", "us", "cents"])
    touches = ev.filter(expr="event_type != 'purchase'").select_columns(
        ["user_id", "us", "event_type"])

    matched = asof_ops.asof_join(
        purchases, touches, by="user_id", left_ts="us", right_ts="us")
    # payload join-backs (1:1 — see docstring): purchase cents on (user, us),
    # touch type on (user, us_r)
    with_cents = runtime.join(matched, purchases, "inner",
                              on=("user_id", "us"))

    def key_touch(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"], "us_r": t["us_r"],
                         "cents": t["cents"]})

    def touch_keyed(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"], "us_r": t["us"],
                         "event_type": t["event_type"]})

    credited = runtime.join(
        with_cents.map_batches(key_touch, batch_format="pyarrow"),
        touches.map_batches(touch_keyed, batch_format="pyarrow"),
        "inner", on=("user_id", "us_r"),
    )

    def touch_type(t: pa.Table) -> pa.Table:
        return pa.table({"touch_type": t["event_type"], "c": t["cents"]})

    return runtime.group_agg(
        credited.map_batches(touch_type, batch_format="pyarrow"),
        "touch_type", {"n_purchases": ("count", None), "cents": ("sum", "c")},
    )


SQL_ATTRIBUTION = """
WITH e AS (SELECT user_id, epoch_us(ts) AS us, event_type,
                  CAST(round(value * 100) AS BIGINT) AS cents FROM events),
p AS (SELECT user_id, us, cents FROM e WHERE event_type = 'purchase'),
t AS (SELECT user_id, us, event_type FROM e WHERE event_type <> 'purchase'),
m AS (SELECT p.user_id, p.us, p.cents, MAX(t.us) AS tus
      FROM p JOIN t ON t.user_id = p.user_id AND t.us <= p.us
      GROUP BY 1, 2, 3)
SELECT t.event_type AS touch_type,
       CAST(COUNT(*) AS BIGINT) AS n_purchases,
       CAST(SUM(m.cents) AS BIGINT) AS cents
FROM m JOIN t ON t.user_id = m.user_id AND t.us = m.tus
GROUP BY 1
"""


def q_resample_gapfill(sf_dir: str):
    """Per-user DAILY resample of the events stream with explicit
    zero-filled gap days between each user's first and last event
    (ops.window.resample_gapfill: two tiny aggregates + segmented-arange
    grid explode + left join; raw events never shuffle). Values pre-scaled
    to integer cents so sums are exact. SQL twin: unnest(range(min, max))
    grid LEFT JOIN the day aggregate."""
    from georay.ops import window as window_ops

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def cents(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "user_id": t["user_id"], "ts": t["ts"],
            "cents": pc.cast(pc.round(pc.multiply(
                pc.cast(t["value"], pa.float64()), 100.0)), pa.int64()),
        })

    ev = ev.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    out = window_ops.resample_gapfill(ev, "user_id", "ts", "cents",
                                      bucket_us=86_400_000_000)

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"], "day": t["bucket"],
                         "n": t["n"], "v_cents": t["v"]})

    return out.map_batches(rename, batch_format="pyarrow")


SQL_RESAMPLE_GAPFILL = """
WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day,
                  CAST(round(value * 100) AS BIGINT) AS cents FROM events),
agg AS (SELECT user_id, day, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(cents) AS BIGINT) AS v
        FROM e GROUP BY 1, 2),
span AS (SELECT user_id, MIN(day) AS d0, MAX(day) AS d1 FROM agg GROUP BY 1),
grid AS (SELECT user_id, unnest(range(d0, d1 + 1)) AS day FROM span)
SELECT g.user_id, g.day, COALESCE(a.n, 0) AS n,
       COALESCE(a.v, 0) AS v_cents
FROM grid g LEFT JOIN agg a ON a.user_id = g.user_id AND a.day = g.day
"""


CHUNK_W = 120
CHUNK_S = 80


def q_doc_chunks(sf_dir: str):
    """RAG chunking: every document split into 120-char windows every 80
    chars (40-char overlap), one stats row per chunk — start, length and
    space count, computed zero-copy against the Arrow string buffers with
    ONE cumsum per batch (ops.text.chunk_stats; no per-doc Python, the
    chunk text itself is never materialized). SQL twin: generate_series ×
    substr × length(replace(...))."""
    from georay.ops import text as text_ops

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return text_ops.chunk_stats(docs, window=CHUNK_W, stride=CHUNK_S)


SQL_DOC_CHUNKS = f"""
WITH idx AS (
  SELECT doc_id, text,
         unnest(range(0, CAST(floor((n_chars - 1) / {CHUNK_S}) AS BIGINT) + 1))
           AS i
  FROM documents),
c AS (
  SELECT doc_id, i AS chunk_idx, i * {CHUNK_S} AS start,
         substr(text, CAST(i * {CHUNK_S} + 1 AS BIGINT), {CHUNK_W}) AS chunk
  FROM idx)
SELECT doc_id, CAST(chunk_idx AS BIGINT) AS chunk_idx,
       CAST(start AS BIGINT) AS start,
       CAST(length(chunk) AS BIGINT) AS clen,
       CAST(length(chunk) - length(replace(chunk, ' ', '')) AS BIGINT)
         AS n_spaces
FROM c
"""


def q_segment_crossings(sf_dir: str):
    """All properly-crossing pairs among synthetic order segments
    (endpoints a closed-form integer function of s_suppkey in a 64×64
    grid): bbox cell-cover candidates → strict int64 orientation-sign
    refine → pair-key dedup groupby (ops.join.segment_crossings). The SQL
    twin is the O(n²) cross join with the same four sign tests — the Ray
    plan is the one that scales."""
    sup = _read(sf_dir, "supplier", columns=["s_suppkey"])

    def mk(t: pa.Table) -> pa.Table:
        k = t["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        # mod a prime first so the dense key space doesn't alias mod 64
        return pa.table({
            "sid": k,
            "x1": (k * 29 % 193) % 64, "y1": (k * 53 % 193) % 64,
            "x2": (k * 71 % 193) % 64, "y2": (k * 13 % 193) % 64,
        })

    segs = sup.map_batches(mk, batch_format="pyarrow", zero_copy_batch=True)
    return join_ops.segment_crossings(segs, "sid", "x1", "y1", "x2", "y2",
                                      cell_shift=3)


SQL_SEGMENT_CROSSINGS = """
WITH s AS (
  SELECT s_suppkey AS sid,
         (s_suppkey * 29 % 193) % 64 AS x1, (s_suppkey * 53 % 193) % 64 AS y1,
         (s_suppkey * 71 % 193) % 64 AS x2, (s_suppkey * 13 % 193) % 64 AS y2
  FROM supplier)
SELECT a.sid AS a, b.sid AS b
FROM s a JOIN s b ON a.sid < b.sid
WHERE sign((a.x2 - a.x1) * (b.y1 - a.y1) - (a.y2 - a.y1) * (b.x1 - a.x1))
    * sign((a.x2 - a.x1) * (b.y2 - a.y1) - (a.y2 - a.y1) * (b.x2 - a.x1)) < 0
  AND sign((b.x2 - b.x1) * (a.y1 - b.y1) - (b.y2 - b.y1) * (a.x1 - b.x1))
    * sign((b.x2 - b.x1) * (a.y2 - b.y1) - (b.y2 - b.y1) * (a.x2 - b.x1)) < 0
"""


POLY_NV = 6  # vertices per synthetic ring


def q_polygon_metrics(sf_dir: str):
    """Per-polygon signed shoelace area and centroid numerators on INTEGER
    vertex coordinates (geometry.ring_shoelace) — the classic GIS measure
    pass, exact with no floats. One irregular 6-gon per customer, vertices
    a closed-form function of the key mirrored verbatim in the SQL twin
    (which re-derives the shoelace relationally: unnest vertex index, join
    i→(i+1) mod NV, SUM cross products per ring)."""
    from georay import geometry

    cust = _read(sf_dir, "customer", columns=["c_custkey"])

    def fn(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = np.arange(POLY_NV, dtype=np.int64)[None, :]
        k = key[:, None]
        vx = (k * 37) % 1000 + (k + (i + 1) * (i + 7)) % 17 - 8
        vy = (k * 91) % 1000 + (k * 3 + (i + 2) * (i + 5)) % 17 - 8
        area2, cx_num, cy_num = geometry.ring_shoelace(vx, vy)
        return pa.table({"poly_id": key, "area2": area2,
                         "cx_num": cx_num, "cy_num": cy_num})

    return cust.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


SQL_POLYGON_METRICS = f"""
WITH v AS (
  SELECT c_custkey AS poly_id, i,
         (c_custkey * 37) % 1000 + (c_custkey + (i + 1) * (i + 7)) % 17 - 8 AS vx,
         (c_custkey * 91) % 1000 + (c_custkey * 3 + (i + 2) * (i + 5)) % 17 - 8 AS vy
  FROM customer
  CROSS JOIN (VALUES (0), (1), (2), (3), (4), (5)) s(i)),
e AS (SELECT a.poly_id,
             a.vx * b.vy - b.vx * a.vy AS cross_i,
             (a.vx + b.vx) * (a.vx * b.vy - b.vx * a.vy) AS cxc,
             (a.vy + b.vy) * (a.vx * b.vy - b.vx * a.vy) AS cyc
      FROM v a JOIN v b
        ON b.poly_id = a.poly_id AND b.i = (a.i + 1) % {POLY_NV})
SELECT poly_id, CAST(SUM(cross_i) AS BIGINT) AS area2,
       CAST(SUM(cxc) AS BIGINT) AS cx_num,
       CAST(SUM(cyc) AS BIGINT) AS cy_num
FROM e GROUP BY poly_id
"""


def q_geary_c(sf_dir: str):
    """Global Geary's C spatial autocorrelation of per-tile order counts
    (queen 8-neighbor weights over OCCUPIED cells, same convention as
    ``moran_i``). The mean cancels inside the numerator's (xᵢ−xⱼ)² so the
    whole statistic is exact integers after K-scaling the denominator:
    C = K²(K−1)·Σw(nᵢ−nⱼ)² / (2W·Σ(K·nᵢ−S)²) — ONE float division; the
    SQL twin uses HUGEINT for the same products. Distributed part is the
    two-phase count aggregate; the ≤2^bits-row cell table finalizes
    driver-side with Python ints (overflow-free at any scale)."""
    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    ).to_pandas()  # bounded: ≤ 2^BITS_TILE occupied cells

    cell = agg["cell"].to_numpy().astype(np.uint64)
    x, y = codec.deinterleave(cell, BITS_TILE)
    n = agg["n"].to_numpy()
    K = len(agg)
    S = int(n.sum())
    v = {(int(a), int(b)): int(c) for a, b, c in zip(x, y, n)}
    W = 0
    num = 0
    ss = sum((K * c - S) ** 2 for c in v.values())
    for (cx, cy), cv in v.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nb = v.get((cx + dx, cy + dy))
                if nb is not None:
                    W += 1
                    num += (cv - nb) ** 2
    return pd.DataFrame({
        "k_cells": [np.int64(K)], "w_pairs": [np.int64(W)],
        "geary_c": [float(K * K * (K - 1) * num) / float(2 * W * ss)],
    })


SQL_GEARY_C = f"""
WITH c AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM orders GROUP BY 1, 2),
st AS (SELECT CAST(COUNT(*) AS HUGEINT) AS k, CAST(SUM(n) AS HUGEINT) AS s
       FROM c),
num AS (SELECT CAST(COUNT(*) AS HUGEINT) AS w,
               SUM(CAST(a.n - b.n AS HUGEINT) * CAST(a.n - b.n AS HUGEINT))
                 AS diff_sum
        FROM c a JOIN c b
          ON abs(a.x - b.x) <= 1 AND abs(a.y - b.y) <= 1
             AND NOT (a.x = b.x AND a.y = b.y)),
den AS (SELECT SUM((k * n - s) * (k * n - s)) AS ss FROM c CROSS JOIN st)
SELECT CAST(k AS BIGINT) AS k_cells, CAST(w AS BIGINT) AS w_pairs,
       CAST(k * k * (k - 1) * diff_sum AS DOUBLE)
         / CAST(2 * w * ss AS DOUBLE) AS geary_c
FROM st CROSS JOIN num CROSS JOIN den
"""


# ----------------------------------------------------------------- trimmed mean

TRIM_PCT_NUM = 1  # trim floor(n/10) rows at each end
TRIM_PCT_DEN = 10


def _flag_cents_partials(sf_dir: str):
    """Per-BATCH (l_returnflag, cents) count partials over lineitem —
    deliberately NOT globally aggregated. Ray's sort-aggregate reduce pays
    per-GROUP Python overhead (~14 s measured on the 60k distinct-cents
    groups at sf0.01); the rank-statistic consumers below instead group by
    the 3-value flag only and merge the duplicate cents rows vectorized
    (their fins sort and treat the rows as a run-length multiset, which is
    exact whether or not equal cents are pre-merged). Output rows are
    bounded by distinct-cents-per-batch × batches — the price-cents domain,
    not the row count."""
    import pyarrow.compute as pc

    li = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        flag = t["l_returnflag"].to_numpy(zero_copy_only=False)
        cents = np.asarray(pc.cast(pc.round(pc.multiply(
            pc.cast(t["l_extendedprice"], pa.float64()), 100.0)), pa.int64()))
        codes, inv = np.unique(flag, return_inverse=True)
        nf = np.int64(len(codes))
        key = cents * nf + inv  # cents ≤ ~1e7 so the pack never overflows
        uk, n = np.unique(key, return_counts=True)
        return pa.table({
            "l_returnflag": codes[(uk % nf).astype(np.intp)],
            "cents": uk // nf,
            "n_v": n.astype(np.int64),
        })

    return li.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_trimmed_mean(sf_dir: str):
    """10%-trimmed mean of extended price per return flag: drop the
    floor(n/10) lowest- and highest-cent rows and average the rest. The
    trim is over per-batch (flag, cents) COUNT partials (bounded by the
    price domain × batches, not the row count) so ties are multiset-exact —
    the kept sum never depends on tie order. Deliberately NO global
    (flag, cents) aggregate (see _flag_cents_partials): ``runtime.by_key``
    on the 3-value flag sorts each flag's partial rows by cents and does
    run-length prefix math directly on the unmerged multiset — 3 Python
    calls total (~2 s vs ~14 s for the 60k-group aggregate, measured)."""
    counts = _flag_cents_partials(sf_dir)

    out_schema = pa.schema([
        ("l_returnflag", pa.string()), ("n", pa.int64()),
        ("n_kept", pa.int64()), ("kept_sum_cents", pa.int64()),
        ("trimmed_mean", pa.float64()),
    ])

    def head_sum(c: np.ndarray, v: np.ndarray, k: int) -> int:
        """Exact sum of the k smallest rows of the run-length multiset."""
        if k == 0:
            return 0
        csum = np.cumsum(c)
        i = int(np.searchsorted(csum, k, side="left"))  # csum[i-1] < k <= csum[i]
        full = int((c[:i] * v[:i]).sum())
        prev = int(csum[i - 1]) if i > 0 else 0
        return full + (k - prev) * int(v[i])

    def fin(g: pa.Table) -> pa.Table:
        g = g.sort_by("cents")
        c = g["n_v"].to_numpy()
        v = g["cents"].to_numpy()
        n = int(c.sum())
        k = (n * TRIM_PCT_NUM) // TRIM_PCT_DEN
        total = int((c * v).sum())
        lo = head_sum(c, v, k)
        hi = head_sum(c[::-1], v[::-1], k)
        kept_n = n - 2 * k
        kept = total - lo - hi
        return pa.table({
            "l_returnflag": [g["l_returnflag"][0].as_py()],
            "n": [n], "n_kept": [kept_n], "kept_sum_cents": [kept],
            "trimmed_mean": [float(kept) / float(kept_n)],
        })

    return runtime.by_key(counts, "l_returnflag",
                          runtime.per_key("l_returnflag", fin), out_schema)


SQL_TRIMMED_MEAN = f"""
WITH c AS (SELECT l_returnflag,
                  CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS cents
           FROM lineitem),
r AS (SELECT l_returnflag, cents,
             ROW_NUMBER() OVER (PARTITION BY l_returnflag
                                ORDER BY cents) AS rk,
             COUNT(*) OVER (PARTITION BY l_returnflag) AS nn
      FROM c)
SELECT l_returnflag, CAST(MAX(nn) AS BIGINT) AS n,
       CAST(COUNT(*) AS BIGINT) AS n_kept,
       CAST(SUM(cents) AS BIGINT) AS kept_sum_cents,
       CAST(SUM(cents) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE)
         AS trimmed_mean
FROM r
WHERE rk > nn * {TRIM_PCT_NUM} // {TRIM_PCT_DEN}
  AND rk <= nn - nn * {TRIM_PCT_NUM} // {TRIM_PCT_DEN}
GROUP BY l_returnflag
"""


# ------------------------------------------------------------ ntile histogram

NTILE_K = 4


def q_ntile_hist(sf_dir: str):
    """Equi-depth (NTILE) histogram of cents per return flag: bucket
    counts, sums, and min/max. Deterministic despite ties because NTILE's
    rank ranges are fixed and every row inside a tie run carries the same
    value — so per-bucket sums are tie-order-free. Computed from per-batch
    (flag, cents) count partials (see _flag_cents_partials for why there is
    no global cents aggregate) by clipping each row's rank interval against
    the bucket boundaries (vectorized over rows, K=4 passes; a tie run split
    across partial rows clips to the same per-value totals, so pre-merging
    duplicate cents is unnecessary)."""
    import pandas as pd

    counts = _flag_cents_partials(sf_dir)

    out_schema = pa.schema([
        ("l_returnflag", pa.string()), ("bucket", pa.int64()),
        ("n", pa.int64()), ("sum_cents", pa.int64()),
        ("min_cents", pa.int64()), ("max_cents", pa.int64()),
    ])

    def fin(g: pa.Table) -> pd.DataFrame:
        g = g.sort_by("cents")
        c = g["n_v"].to_numpy()
        v = g["cents"].to_numpy()
        n = int(c.sum())
        sizes = n // NTILE_K + (np.arange(NTILE_K) < n % NTILE_K)
        bounds = np.r_[0, np.cumsum(sizes)]
        csum = np.cumsum(c)
        lo = csum - c  # start rank (0-based) of each value's tie run
        rows = []
        for b in range(NTILE_K):
            take = np.clip(
                np.minimum(csum, bounds[b + 1]) - np.maximum(lo, bounds[b]),
                0, None)
            m = take > 0
            rows.append((g["l_returnflag"][0].as_py(), b + 1,
                         int(take.sum()), int((take * v).sum()),
                         int(v[m][0]), int(v[m][-1])))
        return pd.DataFrame(rows, columns=out_schema.names)

    return runtime.by_key(counts, "l_returnflag",
                          runtime.per_key("l_returnflag", fin), out_schema)


SQL_NTILE_HIST = f"""
WITH c AS (SELECT l_returnflag,
                  CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS cents
           FROM lineitem),
r AS (SELECT l_returnflag, cents,
             NTILE({NTILE_K}) OVER (PARTITION BY l_returnflag
                                    ORDER BY cents) AS bucket
      FROM c)
SELECT l_returnflag, CAST(bucket AS BIGINT) AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(cents) AS BIGINT) AS sum_cents,
       CAST(MIN(cents) AS BIGINT) AS min_cents,
       CAST(MAX(cents) AS BIGINT) AS max_cents
FROM r GROUP BY 1, 2
"""


# -------------------------------------------------------------- cell bbox (S3)


def q_cell_bbox(sf_dir: str):
    """Per-occupied-cell bounding box + count — the S3/I3 ``bounding_box``
    corner rule (codec.py:205) oracle-verified: lon_min = x/2^nx·360−180,
    lon_max = lon_min + 360/2^nx (exact dyadic cell size), mirrored verbatim
    in SQL. Two-phase count aggregate; the bbox map runs distributed over
    the ≤2^bits aggregated cell rows."""
    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    )

    def bbox(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        lon_min, lat_min, lon_max, lat_max = codec.bounding_box(
            cell, BITS_TILE)
        return pa.table({
            "x": x, "y": y,
            "n": t["n"].to_numpy(zero_copy_only=False).astype(np.int64),
            "lon_min": lon_min, "lat_min": lat_min,
            "lon_max": lon_max, "lat_max": lat_max,
        })

    return agg.map_batches(bbox, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_CELL_BBOX = f"""
WITH c AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM orders GROUP BY 1, 2)
SELECT x, y, n,
       CAST(x AS DOUBLE) / 32.0 * 360.0 - 180.0 AS lon_min,
       CAST(y AS DOUBLE) / 32.0 * 180.0 - 90.0 AS lat_min,
       (CAST(x AS DOUBLE) / 32.0 * 360.0 - 180.0) + 11.25 AS lon_max,
       (CAST(y AS DOUBLE) / 32.0 * 180.0 - 90.0) + 5.625 AS lat_max
FROM c
"""


# -------------------------------------------------------- precision error (S7)

PREC_ERR_BITS = (10, 20, 30)


def q_precision_error(sf_dir: str):
    """Data-driven validation of the S7/I7 ``error_with_precision`` table:
    at three bit precisions, the max |point − decoded-center| per axis over
    all customers, plus the count of rows within the half-cell error bound
    (codec.py:195's 360/2^nx ÷ 2 — every row must satisfy it, and the SQL
    twin recomputes decode centers + the identical dyadic bound). One
    Max/Sum aggregate over 3 groups; only (bits, partial) rows shuffle."""

    cust = _read(sf_dir, "customer", columns=["c_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        rows = {"bits": [], "p_dlon": [], "p_dlat": [], "p_n": [],
                "p_within": []}
        for bits in PREC_ERR_BITS:
            x, y = codec.xy_from_lonlat(lon, lat, bits)
            clon, clat = codec.cell_center(x, y, bits)
            dlon = np.abs(lon - clon)
            dlat = np.abs(lat - clat)
            lon_err, lat_err = codec.error_with_precision(bits)
            within = int(((dlon <= lon_err / 2)
                          & (dlat <= lat_err / 2)).sum())
            rows["bits"].append(np.int64(bits))
            rows["p_dlon"].append(float(dlon.max()))
            rows["p_dlat"].append(float(dlat.max()))
            rows["p_n"].append(np.int64(len(key)))
            rows["p_within"].append(np.int64(within))
        return pa.table(rows)

    return runtime.group_agg(
        cust.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        "bits",
        {"max_dlon": ("max", "p_dlon"), "max_dlat": ("max", "p_dlat"),
         "n": ("sum", "p_n"), "n_within": ("sum", "p_within")},
    )


def _sql_precision_error() -> str:
    branches = []
    for bits in PREC_ERR_BITS:
        nx, ny = codec.split_bits(bits)
        lon = sql_lon("c_custkey")
        lat = sql_lat("c_custkey")
        x = sql_x(lon, nx)
        y = sql_y(lat, ny)
        clon = f"((CAST({x} AS DOUBLE) + 0.5) / {float(1 << nx)!r} * 360.0 - 180.0)"
        clat = f"((CAST({y} AS DOUBLE) + 0.5) / {float(1 << ny)!r} * 180.0 - 90.0)"
        dlon = f"ABS(({lon}) - {clon})"
        dlat = f"ABS(({lat}) - {clat})"
        half_lon = (360.0 / (1 << nx)) / 2
        half_lat = (180.0 / (1 << ny)) / 2
        branches.append(f"""
SELECT CAST({bits} AS BIGINT) AS bits,
       MAX({dlon}) AS max_dlon, MAX({dlat}) AS max_dlat,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN {dlon} <= {half_lon!r} AND {dlat} <= {half_lat!r}
                THEN 1 ELSE 0 END) AS BIGINT) AS n_within
FROM customer""")
    return "\nUNION ALL\n".join(branches)


SQL_PRECISION_ERROR = _sql_precision_error()


# -------------------------------------------------------------- cell area (S8)


def q_cell_area(sf_dir: str):
    """Spherical cell area (S8, codec.area model="sphere") per occupied
    tile cell, oracle-verified: R²·Δλ·(sin φ₂ − sin φ₁) with the identical
    float64 expression tree in SQL. Bit-exact because every grid boundary
    is a dyadic-exact degree value and numpy's sin/radians match DuckDB's
    libm on those inputs (asserted by this query's hash match). Two-phase
    count aggregate; the area map runs distributed over ≤2^bits cells."""
    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    )

    def area_stage(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        return pa.table({
            "x": x, "y": y,
            "n": t["n"].to_numpy(zero_copy_only=False).astype(np.int64),
            "area_m2": codec.area(cell, BITS_TILE, model="sphere"),
        })

    return agg.map_batches(area_stage, batch_format="pyarrow",
                           zero_copy_batch=True)


def _sql_cell_area() -> str:
    rr = 6371008.8 * 6371008.8  # _EARTH_R², evaluated the same way in codec
    return f"""
WITH c AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM orders GROUP BY 1, 2),
b AS (SELECT x, y, n,
             CAST(x AS DOUBLE) / 32.0 * 360.0 - 180.0 AS lon_min,
             CAST(y AS DOUBLE) / 32.0 * 180.0 - 90.0 AS lat_min
      FROM c)
SELECT x, y, n,
       {rr!r} * radians((lon_min + 11.25) - lon_min)
              * (sin(radians(lat_min + 5.625)) - sin(radians(lat_min)))
         AS area_m2
FROM b
"""


SQL_CELL_AREA = _sql_cell_area()


# ------------------------------------------------------------- where zones (S9)

BITS_ZONE_PARENT = 6  # 8 x 8 parents over the 32 x 32 tile grid


def q_where_zones(sf_dir: str):
    """codec.where_zones (S9) oracle: assemble the 32×32 occupancy raster
    (−1 = empty, else the 6-bit PARENT code of the fine cell), run the
    zone scan, and report each occupied parent's bounding index box. The
    distributed part is the two-phase count aggregate; the raster is
    ≤2^bits cells by construction (X9 tiles are small), so the zone scan
    itself is a bounded driver step — same boundedness contract as
    raster_assembly. SQL twin: MIN/MAX row/col per parent over occupied
    fine cells."""
    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    ).to_pandas()  # bounded: ≤ 2^BITS_TILE occupied cells

    nx, ny = codec.split_bits(BITS_TILE)
    cell = agg["cell"].to_numpy().astype(np.uint64)
    x, y = codec.deinterleave(cell, BITS_TILE)
    lon_c, lat_c = codec.cell_center(x, y, BITS_TILE)
    parent = codec.encode(lon_c, lat_c, BITS_ZONE_PARENT).astype(np.int64)
    raster = np.full((1 << ny, 1 << nx), -1, dtype=np.int64)
    raster[y, x] = parent
    zones = codec.where_zones(raster)
    zones.pop(-1, None)
    codes = np.array(sorted(zones), dtype=np.uint64)
    px, py = codec.deinterleave(codes, BITS_ZONE_PARENT)
    boxes = [zones[int(c)] for c in codes]
    return pd.DataFrame({
        "px": px.astype(np.int64), "py": py.astype(np.int64),
        "row_min": np.array([b[0][0] for b in boxes], dtype=np.int64),
        "row_max": np.array([b[0][1] for b in boxes], dtype=np.int64),
        "col_min": np.array([b[1][0] for b in boxes], dtype=np.int64),
        "col_max": np.array([b[1][1] for b in boxes], dtype=np.int64),
    })


SQL_WHERE_ZONES = f"""
WITH c AS (SELECT DISTINCT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                           {sql_y(sql_lat('o_custkey'), 5)} AS y
           FROM orders)
SELECT x // 4 AS px, y // 4 AS py,
       CAST(MIN(y) AS BIGINT) AS row_min, CAST(MAX(y) AS BIGINT) AS row_max,
       CAST(MIN(x) AS BIGINT) AS col_min, CAST(MAX(x) AS BIGINT) AS col_max
FROM c GROUP BY 1, 2
"""


# ------------------------------------------------------------- hilbert order


def q_hilbert_order(sf_dir: str):
    """Hilbert curve index per occupied tile cell (ops/hilbert.py — the
    locality-preserving alternative to Morton for range partitioning).
    Two-phase count aggregate, then the vectorized rotate/reflect walk over
    the ≤2^bits aggregated cells; the SQL twin unrolls the identical
    5-level loop as a CTE chain (pure integer CASE arithmetic, bit-exact)."""
    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    )

    def key_stage(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        d = hilbert_ops.hilbert_from_xy(x, y, BITS_TILE // 2)
        return pa.table({
            "x": x, "y": y, "hkey": d,
            "n": t["n"].to_numpy(zero_copy_only=False).astype(np.int64),
        })

    return agg.map_batches(key_stage, batch_format="pyarrow",
                           zero_copy_batch=True)


def _sql_hilbert_order() -> str:
    """Unroll hilbert_from_xy's level loop as integer-CASE CTE stages."""
    order = BITS_TILE // 2
    ctes = ["c0 AS (SELECT x0, y0, n, x0 AS x, y0 AS y, "
            "CAST(0 AS BIGINT) AS d FROM cells)"]
    for lvl in range(order):
        s = 1 << (order - 1 - lvl)
        rx = f"(CASE WHEN (x & {s}) > 0 THEN 1 ELSE 0 END)"
        ry = f"(CASE WHEN (y & {s}) > 0 THEN 1 ELSE 0 END)"
        dinc = (f"(CASE WHEN {rx} = 0 AND {ry} = 0 THEN 0"
                f" WHEN {rx} = 0 AND {ry} = 1 THEN 1"
                f" WHEN {rx} = 1 AND {ry} = 1 THEN 2 ELSE 3 END)")
        xn = (f"(CASE WHEN {ry} = 0 THEN"
              f" (CASE WHEN {rx} = 1 THEN {s - 1} - y ELSE y END)"
              f" ELSE x END)")
        yn = (f"(CASE WHEN {ry} = 0 THEN"
              f" (CASE WHEN {rx} = 1 THEN {s - 1} - x ELSE x END)"
              f" ELSE y END)")
        ctes.append(
            f"c{lvl + 1} AS (SELECT x0, y0, n, {xn} AS x, {yn} AS y, "
            f"d + {s * s} * {dinc} AS d FROM c{lvl})")
    cells_cte = (f"cells AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x0, "
                 f"{sql_y(sql_lat('o_custkey'), 5)} AS y0, "
                 f"CAST(COUNT(*) AS BIGINT) AS n FROM orders GROUP BY 1, 2)")
    return (f"WITH {cells_cte},\n" + ",\n".join(ctes)
            + f"\nSELECT x0 AS x, y0 AS y, CAST(d AS BIGINT) AS hkey, n "
              f"FROM c{order}")


SQL_HILBERT_ORDER = _sql_hilbert_order()


# ------------------------------------------- fuzzy edit-distance-1 dedup pairs


def q_fuzzy_edit1(sf_dir: str):
    """SymSpell-style fuzzy dedup: all distinct ``documents.source`` pairs
    at byte-level edit distance ≤ 1 (ops/fuzzy.py). Blocking is the
    symmetric-delete neighborhood — candidates share a deletion-variant
    hash, no all-pairs stage — with exact vectorized verification inside
    each variant bucket. Byte-level distance ≡ DuckDB's character-level
    ``levenshtein`` on this ASCII corpus."""
    from georay.ops import fuzzy as fuzzy_ops

    docs = _read(sf_dir, "documents", columns=["source"])
    return fuzzy_ops.edit1_pairs(docs, "source")


SQL_FUZZY_EDIT1 = """
WITH d AS (SELECT DISTINCT source AS s FROM documents)
SELECT a.s AS a, b.s AS b
FROM d a JOIN d b ON a.s < b.s AND levenshtein(a.s, b.s) <= 1
"""


SEN_SCALE = 1_000_000


def q_tile_sen_slope(sf_dir: str):
    """Theil–Sen slope per tile over weekly event counts — the robust
    companion of `tile_mk_trend` (together they are the ArcGIS
    emerging-hot-spot primitive pair): the median over all week pairs
    i<j of (n_j − n_i)/(w_j − w_i). Each slope becomes a fixed-point
    int64 via TRUNCATING division (⌊·⌋ toward zero — DuckDB's `//`
    truncates, numpy's floors, so the engine mirrors truncation) of
    SCALE·Δn by Δweek, and the output is 2×median so even-count
    midpoints stay int64 (grouped_median2 discipline). Plan: two-phase
    (tile, week) counts → driver-bounded dense pivot (≤ tiles ×
    single-digit weeks) → vectorized pair slopes across ALL tiles at
    once → per-tile sorted-middle pick. SQL twin: week self-join +
    ROW_NUMBER median replay."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "ts"])

    def tile_week(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        xi = (eid * HASH_LON) % 360000
        yi = (eid * HASH_LAT) % 180000
        return pa.table({"tile": (xi // 11250) * 32 + yi // 5625,
                         "week": us // (7 * 86_400_000_000)})

    agg = runtime.group_agg(
        ev.map_batches(tile_week, batch_format="pyarrow", zero_copy_batch=True),
        ["tile", "week"], {"n": ("count", None)},
    ).to_pandas()  # bounded: tiles × single-digit weeks

    tiles_v = agg["tile"].to_numpy().astype(np.int64)
    weeks_v = agg["week"].to_numpy().astype(np.int64)
    n_v = agg["n"].to_numpy().astype(np.int64)
    ut = np.unique(tiles_v)
    uw = np.unique(weeks_v)
    ti = np.searchsorted(ut, tiles_v)
    wi = np.searchsorted(uw, weeks_v)
    dense = np.zeros((ut.size, uw.size), np.int64)
    present = np.zeros((ut.size, uw.size), bool)
    dense[ti, wi] = n_v
    present[ti, wi] = True

    if uw.size < 2:  # single observed week: no pairs anywhere (SQL: empty)
        return pd.DataFrame({
            "tile": np.empty(0, np.int64),
            "n_pairs": np.empty(0, np.int64),
            "sen2": np.empty(0, np.int64),
        })
    slope_cols = []
    mask_cols = []
    for i in range(uw.size):
        for j in range(i + 1, uw.size):
            num = (dense[:, j] - dense[:, i]) * SEN_SCALE
            den = uw[j] - uw[i]
            # truncating division (DuckDB `//` semantics, den > 0)
            q = np.where(num >= 0, num // den, -((-num) // den))
            slope_cols.append(q)
            mask_cols.append(present[:, i] & present[:, j])
    slopes = np.stack(slope_cols, axis=1)  # (tiles, week pairs)
    masks = np.stack(mask_cols, axis=1)
    n_pairs = masks.sum(1).astype(np.int64)
    slopes = np.where(masks, slopes, np.iinfo(np.int64).max)
    slopes.sort(axis=1)  # absent pairs sort to the right
    keep = n_pairs > 0
    lo = (n_pairs[keep] - 1) // 2  # 0-based ranks of the two middles
    hi = n_pairs[keep] // 2
    rows = np.arange(ut.size)[keep]
    sen2 = slopes[rows, lo] + slopes[rows, hi]
    return pd.DataFrame({
        "tile": ut[keep], "n_pairs": n_pairs[keep], "sen2": sen2,
    }).sort_values("tile").reset_index(drop=True)


SQL_TILE_SEN_SLOPE = f"""
WITH p AS (
  SELECT ((((event_id * {HASH_LON}) % 360000) // 11250) * 32
          + ((event_id * {HASH_LAT}) % 180000) // 5625) AS tile,
         epoch_us(ts) // {7 * 86_400_000_000} AS week
  FROM events),
a AS (SELECT tile, week, CAST(COUNT(*) AS BIGINT) AS n
      FROM p GROUP BY 1, 2),
s AS (SELECT x.tile, ((y.n - x.n) * {SEN_SCALE}) // (y.week - x.week) AS v
      FROM a x JOIN a y ON y.tile = x.tile AND y.week > x.week),
r AS (SELECT tile, v, ROW_NUMBER() OVER (PARTITION BY tile ORDER BY v) AS rn,
             COUNT(*) OVER (PARTITION BY tile) AS n
      FROM s),
m AS (SELECT tile, CAST(MAX(n) AS BIGINT) AS n_pairs,
             CAST(SUM(CASE WHEN rn = (n + 1) // 2 OR rn = (n + 2) // 2
                           THEN v ELSE 0 END) AS BIGINT) AS s
      FROM r GROUP BY tile)
SELECT tile, n_pairs,
       CASE WHEN n_pairs % 2 = 1 THEN 2 * s ELSE s END AS sen2
FROM m
"""


def q_lisa_clusters(sf_dir: str):
    """Local Moran's I (LISA, Anselin 1995) per occupied cell of the
    per-tile order-count surface — the local decomposition of the global
    `moran_i` (queen 8-neighbor weights over occupied cells, same
    convention). Integer core: z_i = K·n_i − S, lag_i = Σ_nbr z_j, both
    exact Python ints after the distributed two-phase count; the single
    float division K·z_i·lag_i / Σz² happens once per cell, and the
    HH/LL/HL/LH cluster quadrant comes from exact int signs. Cells with
    no occupied neighbor drop out (mirrors the SQL inner join)."""
    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    ).to_pandas()  # bounded: ≤ 2^BITS_TILE occupied cells

    cell = agg["cell"].to_numpy().astype(np.uint64)
    x, y = codec.deinterleave(cell, BITS_TILE)
    n = agg["n"].to_numpy()
    K = len(agg)
    S = int(n.sum())
    z = {(int(a), int(b)): K * int(v) - S for a, b, v in zip(x, y, n)}
    ss = sum(v * v for v in z.values())
    out_x, out_y, out_nn, out_lisa, out_quad = [], [], [], [], []
    for (cx, cy), zv in sorted(z.items()):
        nn = 0
        lag = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nb = z.get((cx + dx, cy + dy))
                if nb is not None:
                    nn += 1
                    lag += nb
        if nn == 0:
            continue
        out_x.append(cx)
        out_y.append(cy)
        out_nn.append(nn)
        out_lisa.append(float(K * zv * lag) / float(ss))
        out_quad.append(("HH" if lag > 0 else "HL") if zv > 0
                        else ("LH" if lag > 0 else "LL"))
    return pd.DataFrame({
        "x": np.array(out_x, np.int64), "y": np.array(out_y, np.int64),
        "nn": np.array(out_nn, np.int64),
        "lisa": np.array(out_lisa, np.float64),
        "quad": out_quad,
    })


SQL_LISA_CLUSTERS = f"""
WITH c AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM orders GROUP BY 1, 2),
st AS (SELECT CAST(COUNT(*) AS HUGEINT) AS k, CAST(SUM(n) AS HUGEINT) AS s
       FROM c),
z AS (SELECT x, y, k * n - s AS z FROM c CROSS JOIN st),
l AS (SELECT a.x, a.y, CAST(COUNT(*) AS BIGINT) AS nn,
             SUM(b.z) AS lag, MAX(a.z) AS z
      FROM z a JOIN z b
        ON abs(a.x - b.x) <= 1 AND abs(a.y - b.y) <= 1
           AND NOT (a.x = b.x AND a.y = b.y)
      GROUP BY a.x, a.y),
den AS (SELECT SUM(z * z) AS ss FROM z)
SELECT l.x, l.y, l.nn,
       CAST(k * l.z * l.lag AS DOUBLE) / CAST(ss AS DOUBLE) AS lisa,
       CASE WHEN l.z > 0 AND l.lag > 0 THEN 'HH'
            WHEN l.z > 0 THEN 'HL'
            WHEN l.lag > 0 THEN 'LH'
            ELSE 'LL' END AS quad
FROM l CROSS JOIN st CROSS JOIN den
"""


def q_quadrat_csr(sf_dir: str):
    """Quadrat test of complete spatial randomness (CSR) over the order
    points: chi² = Σ_all_quadrats (n_c − N/Q)² / (N/Q) across the FULL
    Q = 32×32 grid (empty quadrats included — they contribute (N/Q)²
    each, the classic point-pattern-analysis detail). Multiplying out
    the expectation makes the statistic one exact integer,
    Σ(Q·n_c − N)², computed as Σ_occupied (Q·n_c − N)² +
    (Q − K_occ)·N² from the bounded two-phase count table, with ONE
    float division by Q·N at the end; the index of dispersion (VMR)
    divides the same integer by Q·N·(Q−1)/Q·… — both SQL-twinned via
    HUGEINT."""
    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        return pa.table(
            {"cell": codec.encode(lon, lat, BITS_TILE).astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    ).to_pandas()  # bounded: ≤ 2^BITS_TILE occupied cells

    Q = 1 << BITS_TILE
    n = agg["n"].to_numpy()
    K = len(agg)
    N = int(n.sum())
    chi2_num = sum((Q * int(v) - N) ** 2 for v in n) + (Q - K) * N * N
    chi2 = float(chi2_num) / float(Q * N)
    return pd.DataFrame({
        "quadrats": [np.int64(Q)], "n_points": [np.int64(N)],
        "k_occupied": [np.int64(K)], "chi2": [chi2],
        "dispersion_index": [chi2 / float(Q - 1)],
    })


SQL_QUADRAT_CSR = f"""
WITH c AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS HUGEINT) AS n
           FROM orders GROUP BY 1, 2),
st AS (SELECT CAST(1024 AS HUGEINT) AS q, CAST(COUNT(*) AS HUGEINT) AS k,
              CAST(SUM(n) AS HUGEINT) AS nn
       FROM c),
num AS (SELECT SUM((q * n - nn) * (q * n - nn))
               + (q - k) * nn * nn AS chi2_num
        FROM c CROSS JOIN st GROUP BY q, k, nn)
SELECT CAST(q AS BIGINT) AS quadrats, CAST(nn AS BIGINT) AS n_points,
       CAST(k AS BIGINT) AS k_occupied,
       CAST(chi2_num AS DOUBLE) / CAST(q * nn AS DOUBLE) AS chi2,
       CAST(chi2_num AS DOUBLE) / CAST(q * nn AS DOUBLE) / CAST(q - 1 AS DOUBLE)
         AS dispersion_index
FROM st CROSS JOIN num
"""


def q_gopher_repetition(sf_dir: str):
    """Gopher-rule n-gram repetition signal per document (Rae 2021 §A1.1,
    the duplicate-n-gram family): total / distinct / max-multiplicity
    lowercase word TRIGRAMS — the integer base features behind the
    "fraction of duplicate n-grams" quality filter (unigram repetition is
    already in `quality`; this catches boilerplate that repeats phrases
    with a diverse vocabulary). Embarrassingly parallel: one tokenize +
    shift-pairing pass per batch, no shuffle; docs with <3 tokens emit
    zeros (SQL LEFT JOIN twin)."""
    import re

    import pandas as pd

    from georay.runtime import table_from_pandas

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    word_re = re.compile(r"[\w']+", re.UNICODE)
    schema = pa.schema([("doc_id", pa.int64()), ("n_tri", pa.int64()),
                        ("n_uniq_tri", pa.int64()), ("max_tri_n", pa.int64())])

    def features(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        ex = df["text"].str.findall(word_re).explode().dropna().str.lower()
        out = pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_tri": np.zeros(len(df), np.int64),
            "n_uniq_tri": np.zeros(len(df), np.int64),
            "max_tri_n": np.zeros(len(df), np.int64),
        })
        if len(ex) >= 3:
            w = ex.to_numpy()
            r = ex.index.to_numpy().astype(np.int64)
            m = r[2:] == r[:-2]  # row indices nondecreasing ⇒ middle equal too
            if m.any():
                tri = pd.DataFrame({
                    "d": r[:-2][m],
                    "g": w[:-2][m] + " " + w[1:-1][m] + " " + w[2:][m],
                })
                c = tri.groupby(["d", "g"], as_index=False).size()
                a = c.groupby("d")["size"].agg(["sum", "count", "max"])
                di = a.index.to_numpy().astype(np.int64)
                out.loc[di, "n_tri"] = a["sum"].to_numpy().astype(np.int64)
                out.loc[di, "n_uniq_tri"] = a["count"].to_numpy().astype(
                    np.int64)
                out.loc[di, "max_tri_n"] = a["max"].to_numpy().astype(np.int64)
        return table_from_pandas(out, schema=schema)

    return docs.map_batches(features, batch_format="pandas")


SQL_GOPHER_REPETITION = """
WITH t AS (SELECT doc_id,
                  regexp_extract_all(lower(text), '[\\p{L}\\p{N}_'']+') AS toks
           FROM documents),
tri AS (SELECT doc_id, toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] AS g
        FROM (SELECT doc_id, toks, unnest(range(1, len(toks) - 1)) AS i
              FROM t WHERE len(toks) >= 3)),
c AS (SELECT doc_id, g, COUNT(*) AS n FROM tri GROUP BY 1, 2),
a AS (SELECT doc_id, CAST(SUM(n) AS BIGINT) AS n_tri,
             CAST(COUNT(*) AS BIGINT) AS n_uniq_tri,
             CAST(MAX(n) AS BIGINT) AS max_tri_n
      FROM c GROUP BY 1)
SELECT d.doc_id, COALESCE(n_tri, 0) AS n_tri,
       COALESCE(n_uniq_tri, 0) AS n_uniq_tri,
       COALESCE(max_tri_n, 0) AS max_tri_n
FROM documents d LEFT JOIN a ON d.doc_id = a.doc_id
"""


GI_HOT_Z = 1.645  # one-sided 95 % hot threshold


def q_emerging_hotspots(sf_dir: str):
    """Emerging hot-spot analysis (the ESRI space-time composition, built
    from this repo's own primitives): per-week Getis-Ord Gi* over the
    32×32 event grid + per-tile Mann–Kendall trend of the weekly counts,
    classified into new / intensifying / persistent / former hot
    categories. Gi* uses `hotspot_gi`'s integer-exact variance/slack
    numerators and the IDENTICAL float expression tree as the SQL twin
    (one week = one (k, Σx, Σx²) scalar set; degenerate W=K or zero
    variance weeks emit z=0). Distributed part: two-phase (tile, week)
    counts; the pivot is driver-bounded (≤ tiles × single-digit weeks)
    and the 9-shift neighbor sums vectorize across all weeks at once.
    Categories (simplified ESRI taxonomy, exact int/float-compare CASE):
    new_hot (hot only in the last week), intensifying_hot (hot last week,
    rising MK trend), persistent_hot (hot last week, flat/falling),
    former_hot (was hot, not last week), none."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "ts"])

    def tile_week(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        xi = (eid * HASH_LON) % 360000
        yi = (eid * HASH_LAT) % 180000
        return pa.table({"tile": (xi // 11250) * 32 + yi // 5625,
                         "week": us // (7 * 86_400_000_000)})

    agg = runtime.group_agg(
        ev.map_batches(tile_week, batch_format="pyarrow", zero_copy_batch=True),
        ["tile", "week"], {"n": ("count", None)},
    ).to_pandas()  # bounded: tiles × single-digit weeks

    tiles_v = agg["tile"].to_numpy().astype(np.int64)
    weeks_v = agg["week"].to_numpy().astype(np.int64)
    n_v = agg["n"].to_numpy().astype(np.int64)
    uw = np.unique(weeks_v)
    nw = uw.size
    wi = np.searchsorted(uw, weeks_v)

    # dense (32, 32, weeks) count + presence cubes
    gx = tiles_v // 32
    gy = tiles_v % 32
    dense = np.zeros((32, 32, nw), np.int64)
    present = np.zeros((32, 32, nw), bool)
    dense[gx, gy, wi] = n_v
    present[gx, gy, wi] = True

    # per-week scalars (occupied cells only)
    k_w = present.sum((0, 1)).astype(np.int64)           # K per week
    sum_x = dense.sum((0, 1), dtype=np.int64)
    sum_x2 = (dense * dense).sum((0, 1), dtype=np.int64)

    # 9-shift neighbor aggregation (incl. self), all weeks at once
    w_cnt = np.zeros_like(dense)
    s_sum = np.zeros_like(dense)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            sl_src = (slice(max(0, -dx), 32 - max(0, dx)),
                      slice(max(0, -dy), 32 - max(0, dy)))
            sl_dst = (slice(max(0, dx), 32 - max(0, -dx)),
                      slice(max(0, dy), 32 - max(0, -dy)))
            w_cnt[sl_dst] += present[sl_src].astype(np.int64)
            s_sum[sl_dst] += dense[sl_src]

    # Gi* z with hotspot_gi's exact integer cores and float tree
    var_i = k_w * sum_x2 - sum_x * sum_x                 # (weeks,) exact
    slack_i = k_w * w_cnt - w_cnt * w_cnt                # (32,32,weeks) exact
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (
            s_sum.astype(np.float64)
            - (sum_x.astype(np.float64) / k_w.astype(np.float64)) * w_cnt.astype(np.float64)
        ) / (
            (np.sqrt(var_i.astype(np.float64)) / k_w.astype(np.float64))
            * np.sqrt(slack_i.astype(np.float64) / (k_w.astype(np.float64) - 1.0))
        )
    z = np.where((slack_i == 0) | (var_i[None, None, :] == 0), 0.0, z)
    hot = present & (z > GI_HOT_Z)

    # per-tile Mann–Kendall S over present weeks' counts
    mk_s = np.zeros((32, 32), np.int64)
    for i in range(nw):
        for j in range(i + 1, nw):
            both = present[:, :, i] & present[:, :, j]
            mk_s += np.where(
                both, np.sign(dense[:, :, j] - dense[:, :, i]), 0)

    n_weeks = present.sum(2).astype(np.int64)
    hot_n = hot.sum(2).astype(np.int64)
    hot_last = hot[:, :, nw - 1].astype(np.int64)
    occ = n_weeks > 0
    ox, oy = np.nonzero(occ)
    tile = ox.astype(np.int64) * 32 + oy.astype(np.int64)
    hn = hot_n[occ]
    hl = hot_last[occ]
    mks = mk_s[occ]
    cat = np.where(
        (hl == 1) & (hn == 1), "new_hot",
        np.where((hl == 1) & (mks > 0), "intensifying_hot",
                 np.where(hl == 1, "persistent_hot",
                          np.where(hn >= 1, "former_hot", "none"))))
    out = pd.DataFrame({
        "tile": tile, "n_weeks": n_weeks[occ], "hot_n": hn,
        "mk_s": mks, "hot_last": hl, "category": cat,
    }).sort_values("tile").reset_index(drop=True)
    return out


SQL_EMERGING_HOTSPOTS = f"""
WITH p AS (
  SELECT ((((event_id * {HASH_LON}) % 360000) // 11250) * 32
          + ((event_id * {HASH_LAT}) % 180000) // 5625) AS tile,
         epoch_us(ts) // {7 * 86_400_000_000} AS week
  FROM events),
a AS (SELECT tile, week, CAST(COUNT(*) AS BIGINT) AS n
      FROM p GROUP BY 1, 2),
axy AS (SELECT tile, tile // 32 AS x, tile % 32 AS y, week, n FROM a),
st AS (SELECT week, CAST(COUNT(*) AS BIGINT) AS k,
              CAST(SUM(n) AS BIGINT) AS sum_x,
              CAST(SUM(n * n) AS BIGINT) AS sum_x2
       FROM axy GROUP BY week),
nb AS (SELECT a.tile, a.week, a.n,
              CAST(COUNT(*) AS BIGINT) AS w, CAST(SUM(b.n) AS BIGINT) AS s
       FROM axy a JOIN axy b
         ON b.week = a.week
        AND b.x BETWEEN a.x - 1 AND a.x + 1
        AND b.y BETWEEN a.y - 1 AND a.y + 1
       GROUP BY a.tile, a.week, a.n),
z AS (SELECT nb.tile, nb.week, nb.n,
        CASE WHEN k * w - w * w = 0 OR k * sum_x2 - sum_x * sum_x = 0 THEN 0.0
        ELSE (CAST(s AS DOUBLE)
              - (CAST(sum_x AS DOUBLE) / CAST(k AS DOUBLE)) * CAST(w AS DOUBLE))
             / ((SQRT(CAST(k * sum_x2 - sum_x * sum_x AS DOUBLE))
                 / CAST(k AS DOUBLE))
                * SQRT(CAST(k * w - w * w AS DOUBLE)
                       / (CAST(k AS DOUBLE) - 1.0)))
        END AS gi_z
      FROM nb JOIN st ON st.week = nb.week),
hot AS (SELECT tile, week, n,
               CASE WHEN gi_z > {GI_HOT_Z!r} THEN 1 ELSE 0 END AS hot
        FROM z),
mk AS (SELECT x.tile,
              CAST(COALESCE(SUM(CASE WHEN y.n > x.n THEN 1
                                     WHEN y.n < x.n THEN -1
                                     ELSE 0 END), 0) AS BIGINT) AS mk_s
       FROM hot x LEFT JOIN hot y ON y.tile = x.tile AND y.week > x.week
       GROUP BY 1),
wmax AS (SELECT MAX(week) AS wl FROM a),
t AS (SELECT h.tile, CAST(COUNT(*) AS BIGINT) AS n_weeks,
             CAST(SUM(h.hot) AS BIGINT) AS hot_n,
             CAST(COALESCE(MAX(CASE WHEN h.week = wl THEN h.hot END), 0)
                  AS BIGINT) AS hot_last
      FROM hot h CROSS JOIN wmax GROUP BY 1)
SELECT t.tile, n_weeks, hot_n, mk.mk_s, hot_last,
  CASE WHEN hot_last = 1 AND hot_n = 1 THEN 'new_hot'
       WHEN hot_last = 1 AND mk_s > 0 THEN 'intensifying_hot'
       WHEN hot_last = 1 THEN 'persistent_hot'
       WHEN hot_n >= 1 THEN 'former_hot'
       ELSE 'none' END AS category
FROM t JOIN mk ON mk.tile = t.tile
"""


def q_sde_ellipse(sf_dir: str):
    """Standard deviational ellipse per event type (the classic ESRI
    directional-distribution summary): mean center, PCA major-axis
    orientation and axis lengths of each type's synthetic capture points,
    all derived from EXACT integer moments (Σx, Σy, Σx², Σy², Σxy on the
    centi-degree grid — n·Σx² ≤ 10⁵·1.3·10¹² keeps every numerator in
    int64 up to ~10⁶ points/group) so the one float expression per group
    is bit-identical to the SQL twin. Plan: per-batch moment partials →
    one tiny groupby(event_type) → bounded 5-row driver final."""
    import math

    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "event_type"])

    def moments(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = (eid * HASH_LON) % 360000 // 100
        y = (eid * HASH_LAT) % 180000 // 100
        return pa.table({"event_type": t["event_type"], "x": x, "y": y,
                         "xx": x * x, "yy": y * y, "xy": x * y})

    agg = runtime.group_agg(
        ev.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True),
        "event_type",
        {"n": ("count", None), "sx": ("sum", "x"), "sy": ("sum", "y"),
         "sxx": ("sum", "xx"), "syy": ("sum", "yy"), "sxy": ("sum", "xy")},
    ).to_pandas()  # bounded: one row per event type

    n = agg["n"].to_numpy().astype(np.int64)
    sx, sy = (agg[c].to_numpy().astype(np.int64) for c in ("sx", "sy"))
    sxx, syy, sxy = (agg[c].to_numpy().astype(np.int64)
                     for c in ("sxx", "syy", "sxy"))
    vxx = n * sxx - sx * sx  # n²·variance numerators — exact ints
    vyy = n * syy - sy * sy
    vxy = n * sxy - sx * sy
    d = (vxx - vyy).astype(np.float64)
    b2 = vxy.astype(np.float64)
    r = np.sqrt(d * d + 4.0 * b2 * b2)
    lam1 = ((vxx + vyy).astype(np.float64) + r) / 2.0
    lam2 = np.maximum(((vxx + vyy).astype(np.float64) - r) / 2.0, 0.0)
    nf = n.astype(np.float64)
    out = pd.DataFrame({
        "event_type": agg["event_type"],
        "n": n,
        "mean_x": sx.astype(np.float64) / nf,
        "mean_y": sy.astype(np.float64) / nf,
        "theta": np.array([math.atan2(2.0 * float(bb), float(dd)) / 2.0
                           for bb, dd in zip(b2, d)]),
        "sigma_major": np.sqrt(lam1) / nf,
        "sigma_minor": np.sqrt(lam2) / nf,
    }).sort_values("event_type").reset_index(drop=True)
    return out


SQL_SDE_ELLIPSE = f"""
WITH p AS (
  SELECT event_type,
         ((event_id * {HASH_LON}) % 360000) // 100 AS x,
         ((event_id * {HASH_LAT}) % 180000) // 100 AS y
  FROM events),
m AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
             CAST(SUM(x * x) AS BIGINT) AS sxx,
             CAST(SUM(y * y) AS BIGINT) AS syy,
             CAST(SUM(x * y) AS BIGINT) AS sxy
      FROM p GROUP BY 1),
v AS (SELECT event_type, n, sx, sy,
             n * sxx - sx * sx AS vxx, n * syy - sy * sy AS vyy,
             n * sxy - sx * sy AS vxy
      FROM m),
f AS (SELECT event_type, n, sx, sy, vxx, vyy, vxy,
             CAST(vxx - vyy AS DOUBLE) AS d, CAST(vxy AS DOUBLE) AS b2,
             SQRT(CAST(vxx - vyy AS DOUBLE) * CAST(vxx - vyy AS DOUBLE)
                  + 4.0 * CAST(vxy AS DOUBLE) * CAST(vxy AS DOUBLE)) AS r
      FROM v)
SELECT event_type, n,
       CAST(sx AS DOUBLE) / CAST(n AS DOUBLE) AS mean_x,
       CAST(sy AS DOUBLE) / CAST(n AS DOUBLE) AS mean_y,
       atan2(2.0 * b2, d) / 2.0 AS theta,
       SQRT((CAST(vxx + vyy AS DOUBLE) + r) / 2.0) / CAST(n AS DOUBLE)
         AS sigma_major,
       SQRT(GREATEST((CAST(vxx + vyy AS DOUBLE) - r) / 2.0, 0.0))
         / CAST(n AS DOUBLE) AS sigma_minor
FROM f ORDER BY event_type
"""


JOIN_COUNT_BLACK = 16  # cells with ≥ this many orders are "black"


def q_join_counts(sf_dir: str):
    """Join-count statistics (Cliff–Ord) for a BINARY spatial mark — the
    categorical complement to Moran's I / Geary's C: occupied BITS_TILE
    cells are marked black when they hold ≥ {JOIN_COUNT_BLACK} orders,
    rook-adjacent occupied-cell pairs are classified BB / BW / WW, and the
    nonfree-sampling expectations ship as exact integer numerators over
    the shared denominator m·(m−1). Plan: two-phase per-cell counts →
    bounded ≤1024-row driver final (dense 32×32 shift masks)."""
    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def cell(t: pa.Table) -> pa.Table:
        key = t["o_custkey"].to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(key)
        cx, cy = codec.xy_from_lonlat(lon, lat, BITS_TILE)
        return pa.table({"cell": cx.astype(np.int64) * 32 + cy.astype(np.int64)})

    agg = runtime.group_agg(
        orders.map_batches(cell, batch_format="pyarrow",
                           zero_copy_batch=True),
        "cell", {"n": ("count", None)},
    ).to_pandas()  # bounded: ≤ 2^BITS_TILE occupied cells

    cell = agg["cell"].to_numpy().astype(np.int64)
    cnt = agg["n"].to_numpy().astype(np.int64)
    occ = np.zeros((32, 32), bool)
    blk = np.zeros((32, 32), bool)
    occ[cell // 32, cell % 32] = True
    blk[cell // 32, cell % 32] = cnt >= JOIN_COUNT_BLACK
    m = int(occ.sum())
    nb = int(blk.sum())
    nw = m - nb
    bb = bw = ww = joins = 0
    for ax in (0, 1):  # rook edges: +x and +y shifts
        a_occ = occ[1:, :] if ax == 0 else occ[:, 1:]
        b_occ = occ[:-1, :] if ax == 0 else occ[:, :-1]
        a_blk = blk[1:, :] if ax == 0 else blk[:, 1:]
        b_blk = blk[:-1, :] if ax == 0 else blk[:, :-1]
        both = a_occ & b_occ
        joins += int(both.sum())
        bb += int((both & a_blk & b_blk).sum())
        ww += int((both & ~a_blk & ~b_blk).sum())
        bw += int((both & (a_blk != b_blk)).sum())
    return pd.DataFrame({
        "m": [np.int64(m)], "n_b": [np.int64(nb)], "n_w": [np.int64(nw)],
        "n_joins": [np.int64(joins)], "n_bb": [np.int64(bb)],
        "n_bw": [np.int64(bw)], "n_ww": [np.int64(ww)],
        "ebb_num": [np.int64(joins * nb * (nb - 1))],
        "ebw_num": [np.int64(2 * joins * nb * nw)],
        "eww_num": [np.int64(joins * nw * (nw - 1))],
        "e_den": [np.int64(m * (m - 1))],
    })


SQL_JOIN_COUNTS = f"""
WITH c AS (SELECT {sql_x(sql_lon('o_custkey'), 5)} AS x,
                  {sql_y(sql_lat('o_custkey'), 5)} AS y,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM orders GROUP BY 1, 2),
mk AS (SELECT x, y, CASE WHEN n >= {JOIN_COUNT_BLACK} THEN 1 ELSE 0 END AS b
       FROM c),
e AS (SELECT a.b AS ba, t.b AS bt
      FROM mk a JOIN mk t
        ON (t.x = a.x + 1 AND t.y = a.y) OR (t.x = a.x AND t.y = a.y + 1)),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS m, CAST(SUM(b) AS BIGINT) AS n_b
      FROM mk),
j AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_joins,
             CAST(COALESCE(SUM(CASE WHEN ba = 1 AND bt = 1 THEN 1 END), 0)
                  AS BIGINT) AS n_bb,
             CAST(COALESCE(SUM(CASE WHEN ba <> bt THEN 1 END), 0)
                  AS BIGINT) AS n_bw,
             CAST(COALESCE(SUM(CASE WHEN ba = 0 AND bt = 0 THEN 1 END), 0)
                  AS BIGINT) AS n_ww
      FROM e)
SELECT m, n_b, m - n_b AS n_w, n_joins, n_bb, n_bw, n_ww,
       n_joins * n_b * (n_b - 1) AS ebb_num,
       2 * n_joins * n_b * (m - n_b) AS ebw_num,
       n_joins * (m - n_b) * (m - n_b - 1) AS eww_num,
       m * (m - 1) AS e_den
FROM s CROSS JOIN j
"""


def q_hausdorff_pairs(sf_dir: str):
    """Discrete Hausdorff distance between paired user trajectories —
    the trajectory-similarity join: users 2k and 2k+1 form pair k, and
    H²(A,B) = max(max_a min_b d², max_b min_a d²) over their synthetic
    milli-degree capture points is EXACT int64 (d² ≤ 1.6·10¹¹). Pairs
    missing a side are dropped (no similarity defined). Plan: one
    ``runtime.by_key`` exchange on the pair co-locates both users of each
    pair, then per-pair broadcasted numpy
    distance matrices inside the bucket; cost Σ|A||B| per pair, never
    all-pairs across users."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "pair": pa.array(uid // 2), "side": pa.array(uid % 2),
            "xi": pa.array((eid * HASH_LON) % 360000),
            "yi": pa.array((eid * HASH_LAT) % 180000),
        })

    def bucket_fn(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        out_p, out_na, out_nb, out_h2 = [], [], [], []
        for pid, sub in g.groupby("pair", sort=True):
            s = sub["side"].to_numpy()
            ax = sub["xi"].to_numpy()[s == 0]
            ay = sub["yi"].to_numpy()[s == 0]
            bx = sub["xi"].to_numpy()[s == 1]
            by = sub["yi"].to_numpy()[s == 1]
            if not len(ax) or not len(bx):
                continue
            dx = ax[:, None] - bx[None, :]
            dy = ay[:, None] - by[None, :]
            d2 = dx * dx + dy * dy
            h2 = max(int(d2.min(axis=1).max()), int(d2.min(axis=0).max()))
            out_p.append(pid)
            out_na.append(len(ax))
            out_nb.append(len(bx))
            out_h2.append(h2)
        return pd.DataFrame({
            "pair": np.asarray(out_p, np.int64),
            "n_a": np.asarray(out_na, np.int64),
            "n_b": np.asarray(out_nb, np.int64),
            "h2": np.asarray(out_h2, np.int64),
        })

    return runtime.by_key(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "pair", bucket_fn, pa.schema(
            [(c, pa.int64()) for c in ("pair", "n_a", "n_b", "h2")]))


SQL_HAUSDORFF_PAIRS = f"""
WITH p AS (
  SELECT user_id // 2 AS pair, user_id % 2 AS side, event_id,
         (event_id * {HASH_LON}) % 360000 AS xi,
         (event_id * {HASH_LAT}) % 180000 AS yi
  FROM events),
a AS (SELECT * FROM p WHERE side = 0),
b AS (SELECT * FROM p WHERE side = 1),
dab AS (SELECT a.pair, a.event_id,
               MIN((a.xi - b.xi) * (a.xi - b.xi)
                   + (a.yi - b.yi) * (a.yi - b.yi)) AS md
        FROM a JOIN b ON b.pair = a.pair GROUP BY a.pair, a.event_id),
dba AS (SELECT b.pair, b.event_id,
               MIN((a.xi - b.xi) * (a.xi - b.xi)
                   + (a.yi - b.yi) * (a.yi - b.yi)) AS md
        FROM b JOIN a ON a.pair = b.pair GROUP BY b.pair, b.event_id),
hab AS (SELECT pair, CAST(COUNT(*) AS BIGINT) AS n_a,
               CAST(MAX(md) AS BIGINT) AS h FROM dab GROUP BY pair),
hba AS (SELECT pair, CAST(COUNT(*) AS BIGINT) AS n_b,
               CAST(MAX(md) AS BIGINT) AS h FROM dba GROUP BY pair)
SELECT hab.pair, n_a, n_b, GREATEST(hab.h, hba.h) AS h2
FROM hab JOIN hba ON hba.pair = hab.pair
"""


SIL_CS = 1024  # component scale: |v|·CS·n_label must stay < 2^31/√dims
SIL_SCALE = 1_000_000


def q_silhouette_labels(sf_dir: str):
    """Per-label simplified silhouette over the embedding table — the
    cluster-validity score (Rousseeuw 1987, centroid variant): a(x) =
    d²(x, own-label centroid), b(x) = min over other labels, s(x) =
    (b−a)/max(a,b) on SQUARED distances. Exactness: components pre-scale
    to ints via floor(v·CS) — floor, NOT round: np.round is half-even
    while DuckDB round is half-away, and a power-of-two CS makes exact
    .5 products real — per-(label,dim) integer sums make centroids
    exact rationals, and d²'s numerator Σ_dim (xs·n_l − s_ld)² is pure
    int64 (|xs·n| < 2^23 → 64-dim sum < 2^63); the one float step d² =
    I/(n·CS)² and the (b−a)/max ratio are order-free scalars, floored to
    ints before the final Sum. Plan: two-phase centroid sums (bounded
    labels×dims) → broadcast → per-row integer scoring → group_agg(label).
    """
    from georay.ops.similarity import emb_matrix

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding",
                                               "label"])

    def components(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = emb_matrix(t["embedding"]).astype(np.float64)
        n, d = m.shape
        return pa.table({
            "label": np.repeat(lab, d),
            "dim": np.tile(np.arange(d, dtype=np.int64), n),
            "xs": np.floor(m * SIL_CS).astype(np.int64).reshape(-1),
        })

    cent = runtime.group_agg(
        emb.map_batches(components, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["label", "dim"], {"s": ("sum", "xs"), "n": ("count", None)},
    ).to_pandas()  # bounded: labels × dims

    labs = np.sort(cent["label"].unique()).astype(np.int64)
    dims = int(cent["dim"].max()) + 1
    smat = np.zeros((labs.size, dims), np.int64)
    nvec = np.zeros(labs.size, np.int64)
    li = np.searchsorted(labs, cent["label"].to_numpy())
    smat[li, cent["dim"].to_numpy()] = cent["s"].to_numpy()
    nvec[li] = cent["n"].to_numpy()
    centroids = runtime.broadcast((labs, smat, nvec))

    def score(t: pa.Table) -> pa.Table:
        ls, sm, nv = centroids()
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = emb_matrix(t["embedding"]).astype(np.float64)
        xs = np.floor(m * SIL_CS).astype(np.int64)
        # I[p, l] = Σ_dim (xs·n_l − s_ld)²  — exact int64
        diff = xs[:, None, :] * nv[None, :, None] - sm[None, :, :]
        inum = np.einsum("pld,pld->pl", diff, diff)
        den = nv.astype(np.float64) * float(SIL_CS)
        d2 = inum.astype(np.float64) / (den * den)[None, :]
        own = np.searchsorted(ls, lab)
        a = d2[np.arange(lab.size), own]
        d2[np.arange(lab.size), own] = np.inf
        b = d2.min(axis=1)
        mx = np.maximum(a, b)
        sil = np.where(mx == 0.0, 0.0, (b - a) / mx)
        silq = np.floor(SIL_SCALE * sil).astype(np.int64)
        return pa.table({"label": lab, "silq": silq})

    return runtime.group_agg(
        emb.map_batches(score, batch_format="pyarrow", zero_copy_batch=True),
        "label", {"sil_sum_scaled": ("sum", "silq"), "n_pts": ("count", None)},
    )


SQL_SILHOUETTE = f"""
WITH ex AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label,
         unnest(range(len(embedding))) AS dim,
         CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * {SIL_CS}) AS BIGINT)
           AS xs
  FROM embeddings),
cent AS (SELECT label AS cl, dim, CAST(SUM(xs) AS BIGINT) AS s,
                CAST(COUNT(*) AS BIGINT) AS n
         FROM ex GROUP BY 1, 2),
dist AS (SELECT ex.vec_id, ex.label, cent.cl, ANY_VALUE(cent.n) AS n,
                CAST(SUM((ex.xs * cent.n - cent.s)
                         * (ex.xs * cent.n - cent.s)) AS BIGINT) AS inum
         FROM ex JOIN cent ON cent.dim = ex.dim
         GROUP BY ex.vec_id, ex.label, cent.cl),
d2 AS (SELECT vec_id, label, cl,
              CAST(inum AS DOUBLE)
              / ((CAST(n AS DOUBLE) * {float(SIL_CS)!r})
                 * (CAST(n AS DOUBLE) * {float(SIL_CS)!r})) AS d2
       FROM dist),
ab AS (SELECT vec_id, label,
              MAX(CASE WHEN cl = label THEN d2 END) AS a,
              MIN(CASE WHEN cl <> label THEN d2 END) AS b
       FROM d2 GROUP BY vec_id, label),
s AS (SELECT vec_id, label,
             CASE WHEN GREATEST(a, b) = 0.0 THEN 0.0
                  ELSE (b - a) / GREATEST(a, b) END AS sil
      FROM ab)
SELECT label,
       CAST(SUM(CAST(FLOOR({SIL_SCALE} * sil) AS BIGINT)) AS BIGINT)
         AS sil_sum_scaled,
       CAST(COUNT(*) AS BIGINT) AS n_pts
FROM s GROUP BY 1
"""


DSIR_BUCKETS = 1024
DSIR_SCALE = 1_000_000
DSIR_TARGET_LANG = "en"


def q_dsir_resample(sf_dir: str):
    """DSIR step 2 — Gumbel-top-k importance RESAMPLING (Xie 2023 §2.2:
    sample k docs ∝ exp(weight) without replacement ≡ top-k of weight +
    Gumbel noise): deterministic Gumbel g = −ln(−ln u) from u =
    (splitmix64(doc_id)+0.5)/2⁶⁴, score = dsir_scaled + ⌊10⁶·g⌋ (both
    int64 — the float Gumbel expression is bit-identical on both sides
    because its input hash is), k highest scores win with (score DESC,
    doc_id ASC) tie-break. Plan: the dsir_weights pipeline → per-batch
    integer scoring → global top-k via one bounded sort-limit."""
    from georay.ops.sketch import splitmix64

    k = 64
    w = _dsir_weights_ds(sf_dir)

    def score(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ws = t["dsir_scaled"].to_numpy(zero_copy_only=False).astype(np.int64)
        hu = splitmix64(did.view(np.uint64))
        u = (hu.astype(np.float64) + 0.5) / 18446744073709551616.0
        g = -np.log(-np.log(u))
        sc = ws + np.floor(1e6 * g).astype(np.int64)
        # per-batch top-k partial: only k rows per batch reach the final
        order = np.lexsort((did, -sc))[:k]
        return pa.table({"doc_id": did[order], "score": sc[order]})

    part = w.map_batches(score, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    # bounded final: ≤ k rows per batch partial
    part = part.sort_values(["score", "doc_id"],
                            ascending=[False, True]).head(k)
    return part.reset_index(drop=True)


def _sql_dsir_resample() -> str:
    hashed = sketch_sql_subquery("w", "doc_id", "hu")
    return f"""
WITH w AS (SELECT * FROM ({_sql_dsir()}) dsir),
s AS (SELECT doc_id,
             dsir_scaled
             + CAST(FLOOR(1000000.0 * (-ln(-ln(
                 (CAST(hu AS DOUBLE) + 0.5) / 18446744073709551616.0))))
               AS BIGINT) AS score
      FROM {hashed})
SELECT doc_id, score FROM s ORDER BY score DESC, doc_id ASC LIMIT 64
"""


def q_dsir_weights(sf_dir: str):
    """DSIR step 1 — importance weights (see :func:`_dsir_weights_ds`)."""
    return _dsir_weights_ds(sf_dir)


def _dsir_weights_ds(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): hashed unigram bucket
    log-likelihood ratios between the TARGET distribution (lang = 'en'
    docs) and the RAW corpus, summed per document. Buckets come from
    splitmix64(rank of token in the sorted global vocabulary) %
    {DSIR_BUCKETS} — rank-hashing keeps the SQL twin exact where a string
    hash could not be mirrored. λ_b = ⌊S·((ln(t_b+1) − ln(T+B)) −
    (ln(r_b+1) − ln(R+B)))⌋ is computed ONCE per bucket driver-side
    (bounded B), so per-doc weights are order-free integer dots. Plan:
    tf rows → two-phase (target, raw) bucket counts → broadcast λ table →
    per-doc integer dot + two-phase Sum."""
    import math
    import re

    import pandas as pd

    from georay.ops.sketch import splitmix64
    from georay.runtime import table_from_pandas

    word_re = re.compile(r"[\w']+", re.UNICODE)
    tf_schema = pa.schema([("doc_id", pa.int64()), ("w", pa.string()),
                           ("tf", pa.int64()), ("tf_t", pa.int64())])

    def tf_rows(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df["text"].str.findall(word_re).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        tgt = (df["lang"].to_numpy() == DSIR_TARGET_LANG).astype(np.int64)
        out = pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy()[row],
            "w": toks.to_numpy(),
            "tgt": tgt[row],
        }).groupby(["doc_id", "w", "tgt"], as_index=False).size()
        out["tf_t"] = out["size"] * out["tgt"]
        return table_from_pandas(
            out.rename(columns={"size": "tf"})[["doc_id", "w", "tf", "tf_t"]],
            schema=tf_schema)

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    tf = docs.map_batches(tf_rows, batch_format="pandas").materialize()

    cf = runtime.group_agg(
        tf, "w", {"r": ("sum", "tf"), "t": ("sum", "tf_t")}
    ).to_pandas()  # bounded: vocabulary

    words = cf["w"].to_numpy()
    order = np.argsort(words, kind="quicksort")
    words = words[order]
    rv = cf["r"].to_numpy().astype(np.int64)[order]
    tv = cf["t"].to_numpy().astype(np.int64)[order]
    bkt = (splitmix64(np.arange(words.size, dtype=np.int64).view(np.uint64))
           % np.uint64(DSIR_BUCKETS)).astype(np.int64)
    rb = np.zeros(DSIR_BUCKETS, np.int64)
    tb = np.zeros(DSIR_BUCKETS, np.int64)
    np.add.at(rb, bkt, rv)
    np.add.at(tb, bkt, tv)
    rr, ttot = int(rv.sum()), int(tv.sum())
    lam_b = np.array([
        math.floor(DSIR_SCALE * (
            (math.log(float(t_ + 1)) - math.log(float(ttot + DSIR_BUCKETS)))
            - (math.log(float(r_ + 1)) - math.log(float(rr + DSIR_BUCKETS)))))
        for r_, t_ in zip(rb, tb)
    ], dtype=np.int64)
    lam_w = lam_b[bkt]  # per sorted-vocab word
    weights = runtime.broadcast((words, lam_w))

    def score(t: pa.Table) -> pa.Table:
        ws, lam = weights()
        w = np.asarray(t["w"].to_pylist())
        v = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = lam[np.searchsorted(ws, w)]
        return pa.table({"doc_id": t["doc_id"], "vs": v * s, "tf": v})

    return runtime.group_agg(
        tf.map_batches(score, batch_format="pyarrow", zero_copy_batch=True),
        "doc_id", {"dsir_scaled": ("sum", "vs"), "n_tokens": ("sum", "tf")},
    )


def _sql_dsir() -> str:
    vocab_hashed = sketch_sql_subquery("vocab", "idx", "hu")
    return rf"""
WITH toks AS (SELECT doc_id, lang,
                     unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w
              FROM documents),
tf AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS tf,
              CAST(COALESCE(SUM(CASE WHEN lang = '{DSIR_TARGET_LANG}'
                                     THEN 1 END), 0) AS BIGINT) AS tf_t
       FROM toks GROUP BY doc_id, w),
vocab AS (SELECT w, ROW_NUMBER() OVER (ORDER BY w) - 1 AS idx
          FROM (SELECT DISTINCT w FROM tf)),
bk AS (SELECT w, CAST(hu % {DSIR_BUCKETS} AS BIGINT) AS b
       FROM {vocab_hashed}),
bs AS (SELECT b, CAST(SUM(tf) AS BIGINT) AS rb,
              CAST(SUM(tf_t) AS BIGINT) AS tb
       FROM tf JOIN bk USING (w) GROUP BY b),
tot AS (SELECT CAST(SUM(rb) AS BIGINT) AS rr, CAST(SUM(tb) AS BIGINT) AS tt
        FROM bs),
lam AS (SELECT b,
               CAST(FLOOR({DSIR_SCALE} * (
                 (ln(CAST(tb + 1 AS DOUBLE))
                  - ln(CAST(tt + {DSIR_BUCKETS} AS DOUBLE)))
                 - (ln(CAST(rb + 1 AS DOUBLE))
                    - ln(CAST(rr + {DSIR_BUCKETS} AS DOUBLE)))))
                 AS BIGINT) AS lam
        FROM bs CROSS JOIN tot)
SELECT tf.doc_id,
       CAST(SUM(tf * lam) AS BIGINT) AS dsir_scaled,
       CAST(SUM(tf) AS BIGINT) AS n_tokens
FROM tf JOIN bk USING (w) JOIN lam USING (b)
GROUP BY 1
"""


def q_minhash_index_lifecycle(sf_dir: str):
    """Persisted TEXT-dedup index lifecycle under oracle check
    (MinHashIndex — the build/open split CellIndex provides for the
    spatial family and VecIndex for ANN, applied to MinHash-LSH): BUILD
    the index (signatures → band table partitioned by LSH pair-bucket +
    packed shingle sets partitioned by id hash, both checkpointed
    writes), OPEN a fresh handle from disk (props sidecar only), then
    SELF-QUERY. The stored band rows are exactly the in-flight
    ``band_rows`` output and verification reuses the stored shingle
    sets, so the loaded index's pairs are bit-identical to
    ``near_dup_pairs(verify="shuffle")`` — the relational 5-gram Jaccard
    oracle gates the whole save/load round trip. Fresh root per call:
    the lifecycle itself is the unit under test, never a cache hit."""
    import os
    import shutil
    import tempfile

    from georay.textindex import MinHashIndex

    root = os.path.join(
        tempfile.gettempdir(),
        f"georay_textidx_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    shutil.rmtree(root, ignore_errors=True)

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    MinHashIndex.build(docs, root, n_hashes=64, n_bands=16, shingle_k=5)
    idx = MinHashIndex(root)  # fresh open: everything must come from disk
    return idx.self_pairs(threshold=0.7)


def q_variogram_map(sf_dir: str):
    """Variogram map (anisotropy surface): the semivariogram binned by
    LAG VECTOR (dx, dy) instead of scalar d² — the geostatistics tool for
    detecting directional spatial structure before kriging. Same
    half-ring scatter → hash join → integer (vᵢ−vⱼ)² partials as
    ``semivariogram`` (ops.tiles.variogram vector_bins=True; each
    unordered pair has exactly one reporter). SQL twin: the bounded
    self-join grouped by the raw offsets."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    pts = spatial.points_with_cells(cust, "c_custkey", BITS_TILE, xy=False)
    raster = tiles.count_by(pts.select_columns(["cell"]), "cell")
    return tiles.variogram(raster, BITS_TILE, max_lag=3, vector_bins=True)


SQL_VARIOGRAM_MAP = f"""
WITH pts AS (
  SELECT {sql_x(sql_lon('c_custkey'), 5)} AS x,
         {sql_y(sql_lat('c_custkey'), 5)} AS y
  FROM customer),
g AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY x, y)
SELECT b.x - a.x AS dx, b.y - a.y AS dy,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM((a.n - b.n) * (a.n - b.n)) AS BIGINT) AS sq_sum
FROM g a JOIN g b
  ON b.x BETWEEN a.x - 3 AND a.x + 3
 AND b.y BETWEEN a.y - 3 AND a.y + 3
 AND (b.x > a.x OR (b.x = a.x AND b.y > a.y))
 AND (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y) <= 9
GROUP BY 1, 2
"""


def q_covariogram(sf_dir: str):
    """Empirical covariogram numerators of the customer-count raster —
    Σ vᵢ·vⱼ and pair count per squared lag d² (the spatial-autocovariance
    complement of `semivariogram`: C(h) = prod_sum/n_pairs − m̄ₕ², with
    the mean adjustment left to the caller because it needs per-lag head
    means). Same half-ring scatter → hash join → integer partials
    (ops.tiles.variogram stat="product"); exact under any execution
    order. SQL twin: bounded self-join with SUM(a.n·b.n)."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    pts = spatial.points_with_cells(cust, "c_custkey", BITS_TILE, xy=False)
    raster = tiles.count_by(pts.select_columns(["cell"]), "cell")
    return tiles.variogram(raster, BITS_TILE, max_lag=3, stat="product")


SQL_COVARIOGRAM = f"""
WITH pts AS (
  SELECT {sql_x(sql_lon('c_custkey'), 5)} AS x,
         {sql_y(sql_lat('c_custkey'), 5)} AS y
  FROM customer),
g AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY x, y)
SELECT (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y) AS d2,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(a.n * b.n) AS BIGINT) AS prod_sum
FROM g a JOIN g b
  ON b.x BETWEEN a.x - 3 AND a.x + 3
 AND b.y BETWEEN a.y - 3 AND a.y + 3
 AND (b.x > a.x OR (b.x = a.x AND b.y > a.y))
 AND (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y) <= 9
GROUP BY 1
"""


def q_areal_interpolation(sf_dir: str):
    """Areal interpolation — area-weighted transfer of the customer-count
    raster between MISALIGNED zonal systems (the classic GIS
    reaggregation: census tracts → grid): source 32×32 cells to a 16×16
    target-zone grid offset by half a source cell, so every source cell
    splits into exact QUARTERS across up to 4 zones. Counts stay integer
    by 4×-scaling: each quarter contributes the full cell count n, and
    ``n4 = Σ quarters`` is the zone estimate ×4 — no float weights
    anywhere. Edge quarters outside the zone frame clamp to the nearest
    zone (both sides mirror the clamp). Plan: two-phase cell counts →
    4-way scatter → one tiny group_agg(zone)."""
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    pts = spatial.points_with_cells(cust, "c_custkey", BITS_TILE, xy=False)
    raster = tiles.count_by(pts.select_columns(["cell"]), "cell")

    def scatter(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        x, y = codec.deinterleave(cell, BITS_TILE)
        x = x.astype(np.int64)
        y = y.astype(np.int64)
        zones, vals = [], []
        for qx in (0, 1):
            for qy in (0, 1):
                hx = 2 * x + qx
                hy = 2 * y + qy
                zx = np.clip((hx - 1) // 4, 0, 15)
                zy = np.clip((hy - 1) // 4, 0, 15)
                zones.append(zx * 16 + zy)
                vals.append(n)
        return pa.table({"zone": np.concatenate(zones),
                         "n": np.concatenate(vals)})

    return runtime.group_agg(
        raster.map_batches(scatter, batch_format="pyarrow",
                           zero_copy_batch=True),
        "zone", {"n4": ("sum", "n")},
    )


SQL_AREAL_INTERPOLATION = f"""
WITH pts AS (
  SELECT {sql_x(sql_lon('c_custkey'), 5)} AS x,
         {sql_y(sql_lat('c_custkey'), 5)} AS y
  FROM customer),
g AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY x, y),
q AS (SELECT x, y, n, qx, qy
      FROM g CROSS JOIN (VALUES (0), (1)) t1(qx)
             CROSS JOIN (VALUES (0), (1)) t2(qy)),
z AS (SELECT LEAST(GREATEST((2 * x + qx - 1) // 4, 0), 15) * 16
             + LEAST(GREATEST((2 * y + qy - 1) // 4, 0), 15) AS zone, n
      FROM q)
SELECT zone, CAST(SUM(n) AS BIGINT) AS n4
FROM z GROUP BY zone
"""


GRAVITY_SCALE = 10_000


def q_gravity_calibration(sf_dir: str):
    """Gravity-model distance-decay calibration: OLS fit of ln(flow) =
    k − β·ln(d²) over the origin→destination matrix (flow = OD leg count,
    d² = integer squared grid distance between cell centers; same-cell
    flows drop — no distance). Exactness: x = ⌊S·ln d²⌋ and y = ⌊S·ln n⌋
    are floored ONCE PER DISTINCT value driver-side over the bounded
    (d², n) histogram (segment-entropy discipline — d² has ≤ ~2·31²
    distinct values on the 32×32 grid and n is a small count), the OLS
    moments are exact integers, the β̂ = (mΣxy−ΣxΣy)/(mΣx²−(Σx)²)
    numerators are Python-int / HUGEINT (they exceed int64 at sf0.1),
    and the two divisions are the only floats. Plan: od_matrix →
    two-phase (d², n) histogram → bounded driver final."""
    import math

    import pandas as pd

    from georay.ops import trajectory as traj

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        lon, lat = spatial.synth_lonlat(eid)
        cx, cy = codec.xy_from_lonlat(lon, lat, BITS_TILE)
        return pa.table({
            "user_id": t["user_id"], "us": pa.array(us),
            "event_id": t["event_id"],
            "cell": pa.array((cx * 32 + cy).astype(np.int64)),
        })

    pts = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    od = traj.od_matrix(pts, "user_id", "us", "event_id", "cell")

    def dist_flow(t: pa.Table) -> pa.Table:
        o = t["o_cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["d_cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        dx = o // 32 - d // 32
        dy = o % 32 - d % 32
        d2 = dx * dx + dy * dy
        keep = d2 > 0
        return pa.table({"d2": d2[keep], "nf": n[keep]})

    hist = runtime.group_agg(
        od.map_batches(dist_flow, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["d2", "nf"], {"m": ("count", None)},
    ).to_pandas()  # bounded: distinct (d², flow) combos on a 32×32 grid

    m = hist["m"].to_numpy().astype(np.int64)
    d2 = hist["d2"].to_numpy().astype(np.int64)
    nf = hist["nf"].to_numpy().astype(np.int64)
    x = np.array([math.floor(GRAVITY_SCALE * math.log(float(v)))
                  for v in d2], dtype=object)
    y = np.array([math.floor(GRAVITY_SCALE * math.log(float(v)))
                  for v in nf], dtype=object)
    mi = m.astype(object)
    tot = int(m.sum())
    sx, sy = int((mi * x).sum()), int((mi * y).sum())
    sxx, sxy = int((mi * x * x).sum()), int((mi * x * y).sum())
    num = tot * sxy - sx * sy     # Python ints: exceed int64 at sf0.1
    den = tot * sxx - sx * sx
    beta = float(num) / float(den) if den else 0.0
    k = (float(sy) - beta * float(sx)) / float(tot) / GRAVITY_SCALE
    return pd.DataFrame({
        "m_flows": [np.int64(tot)],
        "beta": [-beta],       # decay is the NEGATIVE slope on ln d²
        "k_intercept": [k],
    })


SQL_GRAVITY_CALIBRATION = f"""
WITH p AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         {sql_x(sql_lon('event_id'), 5)} * 32
           + {sql_y(sql_lat('event_id'), 5)} AS cell
  FROM events),
l AS (SELECT LAG(cell) OVER (PARTITION BY user_id ORDER BY us, event_id)
               AS o_cell,
             cell AS d_cell
      FROM p),
od AS (SELECT o_cell, d_cell, CAST(COUNT(*) AS BIGINT) AS n
       FROM l WHERE o_cell IS NOT NULL GROUP BY 1, 2),
f AS (SELECT (o_cell // 32 - d_cell // 32) * (o_cell // 32 - d_cell // 32)
             + (o_cell % 32 - d_cell % 32) * (o_cell % 32 - d_cell % 32)
               AS d2, n
      FROM od
      WHERE o_cell <> d_cell
        AND (o_cell // 32 - d_cell // 32) * (o_cell // 32 - d_cell // 32)
          + (o_cell % 32 - d_cell % 32) * (o_cell % 32 - d_cell % 32) > 0),
xy AS (SELECT CAST(FLOOR({GRAVITY_SCALE} * ln(CAST(d2 AS DOUBLE)))
                AS HUGEINT) AS x,
              CAST(FLOOR({GRAVITY_SCALE} * ln(CAST(n AS DOUBLE)))
                AS HUGEINT) AS y
       FROM f),
mo AS (SELECT CAST(COUNT(*) AS HUGEINT) AS tot,
              SUM(x) AS sx, SUM(y) AS sy,
              SUM(x * x) AS sxx, SUM(x * y) AS sxy
       FROM xy)
SELECT CAST(tot AS BIGINT) AS m_flows,
       -(CAST(tot * sxy - sx * sy AS DOUBLE)
         / CAST(tot * sxx - sx * sx AS DOUBLE)) AS beta,
       (CAST(sy AS DOUBLE)
        - (CAST(tot * sxy - sx * sy AS DOUBLE)
           / CAST(tot * sxx - sx * sx AS DOUBLE)) * CAST(sx AS DOUBLE))
       / CAST(tot AS DOUBLE) / {GRAVITY_SCALE} AS k_intercept
FROM mo
"""


KNOX_EPS = 5_000              # milli-degree grid units
KNOX_TAU = 1_800_000_000      # 30 min in µs — τ sets the
# time-bucket candidate density (pairs ~ N²·τ/range): keep τ·rate ≈ O(1)
# per bucket at scale, same contract as every blocking join in the repo
_KNOX_BIG_EPS = 1_000_000     # > any possible grid distance → space ignored
_KNOX_BIG_WIN = 1 << 59       # > any epoch-µs spread → time ignored


def q_knox_test(sf_dir: str):
    """Knox space-time interaction test over cross-user event pairs (the
    classic epidemiology statistic: do close-in-space pairs cluster in
    time?). Observed = pairs within BOTH the space radius δ and the time
    window τ; expected under the permutation null = X·T/M where X / T
    count space-only / time-only close pairs and M is the cross-user pair
    universe. All four counts are exact integers; the ratio is the one
    float. Plan: ONE 3-D bucket contact join (ops.trajectory.
    spatiotemporal_pairs) run three times with degenerate parameters —
    (δ, ∞) counts X with pure spatial blocking, (∞, τ) counts T with pure
    time-bucket blocking, (δ, τ) counts XT — each a streaming count, no
    pair list ever materializes to the driver; M comes from a two-phase
    per-user count. SQL twin: three DuckDB IEJoins on the raw predicates."""
    import pandas as pd

    from georay.ops import trajectory as traj

    def pts():
        ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

        def prep(t: pa.Table) -> pa.Table:
            eid = t["event_id"].to_numpy(zero_copy_only=False)
            us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            return pa.table({
                "event_id": t["event_id"], "user_id": t["user_id"],
                "us": pa.array(us),
                "xi": pa.array((eid * HASH_LON) % 360000),
                "yi": pa.array((eid * HASH_LAT) % 180000),
            })

        return ev.map_batches(prep, batch_format="pyarrow",
                              zero_copy_batch=True)

    def n_pairs(eps: int, window_us: int) -> int:
        return traj.spatiotemporal_pairs(
            pts(), "event_id", "user_id", "us", "xi", "yi",
            eps=eps, window_us=window_us,
        ).count()

    x_pairs = n_pairs(KNOX_EPS, _KNOX_BIG_WIN)
    t_pairs = n_pairs(_KNOX_BIG_EPS, KNOX_TAU)
    xt_pairs = n_pairs(KNOX_EPS, KNOX_TAU)

    uc = tiles.count_by(pts().select_columns(["user_id"]), "user_id")

    def m_partial(t: pa.Table) -> pa.Table:
        c = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"p_n": pa.array([int(c.sum())]),
                         "p_s2": pa.array([int((c * (c - 1)).sum())])})

    mrow = (
        uc.map_batches(m_partial, batch_format="pyarrow")
    ).to_pandas()  # bounded: one row per per-user-count block
    n = int(mrow["p_n"].sum())
    s2 = int(mrow["p_s2"].sum())
    m = (n * (n - 1) - s2) // 2
    denom = x_pairs * t_pairs
    ratio = (float(xt_pairs) * float(m) / float(denom)) if denom else 0.0
    return pd.DataFrame({
        "n": [np.int64(n)], "m_pairs": [np.int64(m)],
        "x_pairs": [np.int64(x_pairs)], "t_pairs": [np.int64(t_pairs)],
        "xt_pairs": [np.int64(xt_pairs)],
        "exp_num": [np.int64(denom)],
        "knox_ratio": [ratio],
    })


SQL_KNOX_TEST = f"""
WITH p AS (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         (event_id * {HASH_LON}) % 360000 AS xi,
         (event_id * {HASH_LAT}) % 180000 AS yi
  FROM events),
uc AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c FROM p GROUP BY 1),
nn AS (SELECT CAST(SUM(c) AS BIGINT) AS n,
              CAST(SUM(c * (c - 1)) AS BIGINT) AS s2
       FROM uc),
x AS (SELECT CAST(COUNT(*) AS BIGINT) AS x_pairs
      FROM p a JOIN p b
        ON a.event_id < b.event_id AND a.user_id <> b.user_id
       AND (a.xi - b.xi) * (a.xi - b.xi)
         + (a.yi - b.yi) * (a.yi - b.yi) <= {KNOX_EPS * KNOX_EPS}),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS t_pairs
      FROM p a JOIN p b
        ON a.event_id < b.event_id AND a.user_id <> b.user_id
       AND abs(a.us - b.us) <= {KNOX_TAU}),
xt AS (SELECT CAST(COUNT(*) AS BIGINT) AS xt_pairs
       FROM p a JOIN p b
         ON a.event_id < b.event_id AND a.user_id <> b.user_id
        AND abs(a.us - b.us) <= {KNOX_TAU}
        AND (a.xi - b.xi) * (a.xi - b.xi)
          + (a.yi - b.yi) * (a.yi - b.yi) <= {KNOX_EPS * KNOX_EPS})
SELECT n, (n * (n - 1) - s2) // 2 AS m_pairs, x_pairs, t_pairs, xt_pairs,
       x_pairs * t_pairs AS exp_num,
       CASE WHEN x_pairs * t_pairs = 0 THEN 0.0
            ELSE CAST(xt_pairs AS DOUBLE)
                 * CAST((n * (n - 1) - s2) // 2 AS DOUBLE)
                 / CAST(x_pairs * t_pairs AS DOUBLE) END AS knox_ratio
FROM nn CROSS JOIN x CROSS JOIN t CROSS JOIN xt
"""


RBO_K = 20
RBO_SCALE = 1_000_000_000


def q_rbo_rankings(sf_dir: str):
    """Rank-biased overlap (Webber 2010, truncated at k={RBO_K}, p=0.9)
    between the revenue-top-k and quantity-top-k part rankings — the
    ranking-comparison metric of the eval family (rrf_fusion fuses,
    ann_recall scores retrieval; RBO compares two rankings directly).
    EXACT despite p^d: p = 9/10 makes every term rational, t_d =
    ⌊S·9^(d−1)·ov_d / (10^d·d)⌋ in Python-int / HUGEINT, and rbo_scaled =
    Σ t_d. Both rankings break ties (metric DESC, partkey ASC). Plan: two
    two-phase integer part aggregates → bounded part-catalog driver final
    (overlap prefix loop over two k-lists)."""
    import pandas as pd

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice", "l_discount",
                        "l_quantity"])

    def rev_qty(t: pa.Table) -> pa.Table:
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        pct = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        qty = np.round(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        return pa.table({"l_partkey": t["l_partkey"],
                         "rev": cents * (100 - pct), "qty": qty})

    agg = runtime.group_agg(
        li.map_batches(rev_qty, batch_format="pyarrow", zero_copy_batch=True),
        "l_partkey", {"rev": ("sum", "rev"), "qty": ("sum", "qty")},
    ).to_pandas()  # bounded: part catalog (dimension table)

    top_a = (agg.sort_values(["rev", "l_partkey"], ascending=[False, True])
             .head(RBO_K)["l_partkey"].to_numpy())
    top_b = (agg.sort_values(["qty", "l_partkey"], ascending=[False, True])
             .head(RBO_K)["l_partkey"].to_numpy())
    rbo_scaled = 0
    ov_k = 0
    for d in range(1, RBO_K + 1):
        ov = len(set(top_a[:d]) & set(top_b[:d]))
        ov_k = ov
        rbo_scaled += (RBO_SCALE * 9 ** (d - 1) * ov) // (10 ** d * d)
    return pd.DataFrame({
        "k": [np.int64(RBO_K)],
        "overlap_at_k": [np.int64(ov_k)],
        "rbo_scaled": [np.int64(rbo_scaled)],
    })


def _sql_rbo() -> str:
    pows = ",\n  ".join(
        f"({d}, {RBO_SCALE * 9 ** (d - 1)}, {10 ** d * d})"
        for d in range(1, RBO_K + 1))
    return f"""
WITH a AS (SELECT l_partkey,
                  CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                    AS BIGINT) AS rev,
                  CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT)
                    AS qty
           FROM lineitem GROUP BY 1),
ra AS (SELECT l_partkey,
              ROW_NUMBER() OVER (ORDER BY rev DESC, l_partkey ASC) AS rk
       FROM a),
rb AS (SELECT l_partkey,
              ROW_NUMBER() OVER (ORDER BY qty DESC, l_partkey ASC) AS rk
       FROM a),
pw(d, num, den) AS (VALUES
  {pows}
),
ov AS (SELECT pw.d, pw.num, pw.den,
              (SELECT CAST(COUNT(*) AS HUGEINT)
               FROM ra JOIN rb USING (l_partkey)
               WHERE ra.rk <= pw.d AND rb.rk <= pw.d) AS o
       FROM pw),
terms AS (SELECT d, (CAST(num AS HUGEINT) * o) // CAST(den AS HUGEINT)
                    AS t
          FROM ov)
SELECT CAST({RBO_K} AS BIGINT) AS k,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM ra JOIN rb USING (l_partkey)
        WHERE ra.rk <= {RBO_K} AND rb.rk <= {RBO_K}) AS overlap_at_k,
       CAST(SUM(t) AS BIGINT) AS rbo_scaled
FROM terms
"""


KW_SCALE = 1_000_000
KW_K = 3


def q_doc_keywords(sf_dir: str):
    """Per-document keyword extraction — top-{KW_K} terms by TF·IDF with
    (score DESC, term ASC) tie-break (the RAG/metadata-enrichment step;
    complements the corpus-level `tfidf_topk`). IDF = ⌊S·(ln D − ln df)⌋
    is floored ONCE per distinct term driver-side over the bounded
    vocabulary and broadcast, so per-row scores are exact int64 products;
    ranking runs through ops.rank.grouped_topk (per-batch local top-k →
    ``runtime.by_key`` final, never one Python call per doc). SQL twin: window
    ROW_NUMBER over the same integer scores."""
    import math
    import re

    import pandas as pd

    from georay.ops.rank import grouped_topk
    from georay.runtime import table_from_pandas

    word_re = re.compile(r"[\w']+", re.UNICODE)
    tf_schema = pa.schema([("doc_id", pa.int64()), ("w", pa.string()),
                           ("tf", pa.int64())])

    def tf_rows(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df["text"].str.findall(word_re).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        out = pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy()[row], "w": toks.to_numpy(),
        }).groupby(["doc_id", "w"], as_index=False).size()
        return table_from_pandas(out.rename(columns={"size": "tf"}),
                                 schema=tf_schema)

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tf = docs.map_batches(tf_rows, batch_format="pandas").materialize()

    # tf rows are unique per (doc, w): counting rows per w IS df
    dfh = runtime.group_agg(
        tf.select_columns(["w"]), "w", {"df": ("count", None)}
    ).to_pandas()  # bounded: vocabulary

    # D = docs with ≥1 token (distinct doc_id in tf) via one tiny count_by
    n_docs = tiles.count_by(tf.select_columns(["doc_id"]), "doc_id").count()

    words = dfh["w"].to_numpy()
    order = np.argsort(words, kind="quicksort")
    words = words[order]
    dfv = dfh["df"].to_numpy().astype(np.int64)[order]
    ld = math.log(float(n_docs))
    idf = np.array([
        math.floor(KW_SCALE * (ld - math.log(float(v)))) for v in dfv
    ], dtype=np.int64)
    idfs = runtime.broadcast((words, idf))

    def score(t: pa.Table) -> pa.Table:
        ws, iv = idfs()
        w = np.asarray(t["w"].to_pylist())
        v = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = iv[np.searchsorted(ws, w)]
        return pa.table({"doc_id": t["doc_id"], "w": t["w"],
                         "tfidf": pa.array(v * s)})

    scored = tf.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)
    return grouped_topk(scored, ["doc_id"], ["tfidf", "w"],
                        [False, True], k=KW_K)


SQL_DOC_KEYWORDS = rf"""
WITH toks AS (SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w
              FROM documents),
tf AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS tf
       FROM toks GROUP BY doc_id, w),
dft AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY w),
dd AS (SELECT CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS d FROM tf),
idf AS (SELECT w, CAST(FLOOR({KW_SCALE} * (ln(CAST(d AS DOUBLE))
                   - ln(CAST(df AS DOUBLE)))) AS BIGINT) AS idf
        FROM dft CROSS JOIN dd),
s AS (SELECT tf.doc_id, tf.w, tf * idf AS tfidf
      FROM tf JOIN idf USING (w)),
r AS (SELECT doc_id, w, tfidf,
             ROW_NUMBER() OVER (PARTITION BY doc_id
                                ORDER BY tfidf DESC, w ASC) AS rank
      FROM s)
SELECT doc_id, w, CAST(tfidf AS BIGINT) AS tfidf, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= {KW_K}
"""


NB_BUCKETS = 512
NB_SCALE = 1_000_000


def q_nb_langid(sf_dir: str):
    """TRAINED language classifier — multinomial Naive Bayes over hashed
    unigram buckets (the fasttext-style quality/language-classifier
    pattern of corpus curation, complementing the heuristic `langid`):
    train on even doc_ids, score odd ones, emit the confusion matrix.
    Honest caveat (same spirit as `langid`): the synthetic fixture text
    shares one vocabulary across langs, so accuracy sits near the
    majority base rate — the pipeline mechanics are the deliverable.
    Model: λ_{b,c} = ⌊S·(ln(n_bc+1) − ln(T_c+B))⌋ per (bucket, class) and
    doc-count priors π_c = ⌊S·(ln d_c − ln d)⌋, both computed ONCE
    driver-side over the bounded B×C grid; buckets hash the sorted TRAIN
    vocabulary rank (the DSIR trick that keeps the SQL twin exact), and
    out-of-vocabulary test tokens are ignored (classic NB practice) on
    BOTH sides. Scoring is an order-free integer dot; prediction = argmax
    with smallest-class-code tie-break; lang_true rides INSIDE the
    groupby key (doc_id·8 + code, ≤8 classes by contract) so no
    doc→lang join or broadcast of the big side is ever needed. Test docs
    whose true lang never occurs in training are excluded (no code).
    Plan: train tf → two-phase (lang, w) counts → broadcast λ/π →
    per-row scores → group_agg(key) → argmax map → group_agg confusion
    final."""
    import math
    import re

    import pandas as pd

    from georay.ops.sketch import splitmix64
    from georay.runtime import table_from_pandas

    word_re = re.compile(r"[\w']+", re.UNICODE)
    tf_schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                           ("w", pa.string()), ("tf", pa.int64())])

    def tf_rows(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df["text"].str.findall(word_re).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        out = pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy()[row],
            "lang": df["lang"].to_numpy()[row],
            "w": toks.to_numpy(),
        }).groupby(["doc_id", "lang", "w"], as_index=False).size()
        return table_from_pandas(
            out.rename(columns={"size": "tf"})[
                ["doc_id", "lang", "w", "tf"]],
            schema=tf_schema)

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    tf = docs.map_batches(tf_rows, batch_format="pandas").materialize()

    def train_partial(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = did % 2 == 0
        w = np.asarray(t["w"].to_pylist(), dtype=object)[keep]
        lg = np.asarray(t["lang"].to_pylist(), dtype=object)[keep]
        v = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        dd = did[keep]
        lw = pd.DataFrame({"lang": lg, "w": w, "tf": v, "doc": dd})
        tf_g = lw.groupby(["lang", "w"], as_index=False)["tf"].sum()
        dc_g = (lw[["lang", "doc"]].drop_duplicates()
                .groupby("lang", as_index=False).size())
        return pa.table({
            "lang": pa.array(
                np.concatenate([tf_g["lang"].to_numpy(),
                                dc_g["lang"].to_numpy()]), pa.string()),
            "w": pa.array(
                np.concatenate([tf_g["w"].to_numpy(),
                                np.full(len(dc_g), "", object)]),
                pa.string()),
            "p_tf": np.concatenate([
                tf_g["tf"].to_numpy().astype(np.int64),
                np.zeros(len(dc_g), np.int64)]),
            "p_docs": np.concatenate([
                np.zeros(len(tf_g), np.int64),
                dc_g["size"].to_numpy().astype(np.int64)]),
        })

    trained = runtime.group_agg(
        tf.map_batches(train_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["lang", "w"], {"tf": ("sum", "p_tf"), "docs": ("sum", "p_docs")},
    ).to_pandas()  # bounded: train vocabulary × classes

    langs = np.sort(trained["lang"].unique().astype(str))
    c_cnt = len(langs)
    assert c_cnt <= 8, "nb_langid key packs the class code into 3 bits"
    wmask = trained["w"] != ""
    vocab = np.sort(np.unique(trained.loc[wmask, "w"].to_numpy().astype(str)))

    bkt_all = (splitmix64(np.arange(vocab.size, dtype=np.int64)
                          .view(np.uint64))
               % np.uint64(NB_BUCKETS)).astype(np.int64)
    nbc = np.zeros((NB_BUCKETS, c_cnt), np.int64)
    tw = trained.loc[wmask, "w"].to_numpy().astype(str)
    tl = trained.loc[wmask, "lang"].to_numpy().astype(str)
    tv = trained.loc[wmask, "tf"].to_numpy().astype(np.int64)
    np.add.at(nbc, (bkt_all[np.searchsorted(vocab, tw)],
                    np.searchsorted(langs, tl)), tv)
    t_c = nbc.sum(axis=0)
    d_c = np.zeros(c_cnt, np.int64)
    d_rows = trained.loc[~wmask]
    np.add.at(d_c, np.searchsorted(langs, d_rows["lang"].to_numpy().astype(str)),
              d_rows["docs"].to_numpy().astype(np.int64))
    d_tot = int(d_c.sum())
    lam = np.empty((NB_BUCKETS, c_cnt), np.int64)
    for c in range(c_cnt):
        ltc = math.log(float(t_c[c] + NB_BUCKETS))
        for b in range(NB_BUCKETS):
            lam[b, c] = math.floor(
                NB_SCALE * (math.log(float(nbc[b, c] + 1)) - ltc))
    pri = np.array([
        math.floor(NB_SCALE * (math.log(float(d_c[c]))
                               - math.log(float(d_tot))))
        for c in range(c_cnt)
    ], dtype=np.int64)
    model = runtime.broadcast((vocab, bkt_all, lam, langs))

    def score(t: pa.Table) -> pa.Table:
        vb, bk_v, lm, ls = model()
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.asarray(t["w"].to_pylist(), dtype=object).astype(str)
        lg = np.asarray(t["lang"].to_pylist(), dtype=object).astype(str)
        v = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(vb, w)
        in_v = (idx < vb.size) & (vb[np.minimum(idx, vb.size - 1)] == w)
        lc = np.searchsorted(ls, lg)
        in_l = (lc < ls.size) & (ls[np.minimum(lc, ls.size - 1)] == lg)
        keep = (did % 2 == 1) & in_v & in_l
        bkt = bk_v[idx[keep]]
        vv = v[keep]
        cols = {"key": did[keep] * 8 + lc[keep]}
        cols.update({f"s{c}": vv * lm[bkt, c] for c in range(ls.size)})
        return pa.table(cols)

    scored = runtime.group_agg(
        tf.map_batches(score, batch_format="pyarrow", zero_copy_batch=True),
        "key", {f"t{c}": ("sum", f"s{c}") for c in range(c_cnt)},
    )

    langs_b, pri_b = langs, pri  # bound pre-closure for the worker

    def finalize(t: pa.Table) -> pa.Table:
        kk = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        sc = np.stack([
            t[f"t{c}"].to_numpy(zero_copy_only=False).astype(np.int64)
            for c in range(len(langs_b))], axis=1) + pri_b[None, :]
        pred = np.argmax(sc, axis=1)  # first max = smallest code on ties
        return pa.table({
            "lang_true": pa.array(langs_b[kk % 8], pa.string()),
            "lang_pred": pa.array(langs_b[pred], pa.string()),
        })

    return runtime.group_agg(
        scored.map_batches(finalize, batch_format="pyarrow"),
        ["lang_true", "lang_pred"], {"n": ("count", None)},
    )


def _sql_nb() -> str:
    vocab_hashed = sketch_sql_subquery("vocab", "idx", "hu")
    return rf"""
WITH toks AS (SELECT doc_id, lang,
                     unnest(regexp_extract_all(lower(text), '[\w'']+')) AS w
              FROM documents),
tf AS (SELECT doc_id, lang, w, CAST(COUNT(*) AS BIGINT) AS tf
       FROM toks GROUP BY 1, 2, 3),
langs AS (SELECT lang, ROW_NUMBER() OVER (ORDER BY lang) - 1 AS c
          FROM (SELECT DISTINCT lang FROM tf WHERE doc_id % 2 = 0)),
vocab AS (SELECT w, ROW_NUMBER() OVER (ORDER BY w) - 1 AS idx
          FROM (SELECT DISTINCT w FROM tf WHERE doc_id % 2 = 0)),
bk AS (SELECT w, CAST(hu % {NB_BUCKETS} AS BIGINT) AS b
       FROM {vocab_hashed}),
nbc AS (SELECT b, c, CAST(SUM(tf) AS BIGINT) AS n
        FROM tf JOIN bk USING (w) JOIN langs USING (lang)
        WHERE doc_id % 2 = 0 GROUP BY 1, 2),
tc AS (SELECT c, CAST(SUM(n) AS BIGINT) AS t FROM nbc GROUP BY 1),
grid AS (SELECT g.b, langs.c
         FROM (SELECT DISTINCT b FROM bk) g CROSS JOIN langs),
lam AS (SELECT grid.b, grid.c,
               CAST(FLOOR({NB_SCALE} * (
                 ln(CAST(COALESCE(nbc.n, 0) + 1 AS DOUBLE))
                 - ln(CAST(tc.t + {NB_BUCKETS} AS DOUBLE)))) AS BIGINT)
                 AS lam
        FROM grid LEFT JOIN nbc ON nbc.b = grid.b AND nbc.c = grid.c
        JOIN tc ON tc.c = grid.c),
dc AS (SELECT langs.c, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS d
       FROM tf JOIN langs USING (lang) WHERE doc_id % 2 = 0 GROUP BY 1),
dtot AS (SELECT CAST(SUM(d) AS BIGINT) AS dt FROM dc),
pri AS (SELECT c, CAST(FLOOR({NB_SCALE} * (ln(CAST(d AS DOUBLE))
                     - ln(CAST(dt AS DOUBLE)))) AS BIGINT) AS pri
        FROM dc CROSS JOIN dtot),
test AS (SELECT tf.doc_id, tf.lang, bk.b, tf.tf
         FROM tf JOIN bk USING (w) JOIN langs ON langs.lang = tf.lang
         WHERE tf.doc_id % 2 = 1),
sc AS (SELECT test.doc_id, test.lang AS lang_true, lam.c,
              CAST(SUM(test.tf * lam.lam) AS BIGINT) + ANY_VALUE(pri.pri)
                AS score
       FROM test JOIN lam ON lam.b = test.b JOIN pri ON pri.c = lam.c
       GROUP BY 1, 2, 3),
pick AS (SELECT doc_id, lang_true, c,
                ROW_NUMBER() OVER (PARTITION BY doc_id
                                   ORDER BY score DESC, c ASC) AS rk
         FROM sc)
SELECT lang_true, langs.lang AS lang_pred, CAST(COUNT(*) AS BIGINT) AS n
FROM pick JOIN langs ON langs.c = pick.c
WHERE rk = 1 GROUP BY 1, 2
"""


# ------------------------------------------------------------------- registry


def registry(n_images: int = 10_000, include_sql: bool = True):
    """name -> (pipeline callable, oracle SQL or None).

    ``n_images`` parameterizes the image-table oracles (the synthetic image
    table has ``fixtures.n_images_for(sf_dir)`` rows); the audio/video
    table sizes are tied to it (÷5 and ÷10 — fixtures.N_AUDIO/N_VIDEO).
    The default matches the driver's sf0.01 contract.
    ``include_sql=False`` skips the one expensive oracle builder (the
    768-image thumb-hash table) for callers that only need the pipeline
    callables (bench, queries())."""
    n_audio = n_images // 5
    n_video = n_images // 10
    return {
        "cell_encode": (q_cell_encode, SQL_CELL_ENCODE),
        "cell_roundtrip": (q_cell_roundtrip, SQL_CELL_ROUNDTRIP),
        "cell_parent": (q_cell_parent, SQL_CELL_PARENT),
        "cover_grid": (q_cover_grid, SQL_COVER_GRID),
        "polygon_cover": (q_polygon_cover, SQL_POLYGON_COVER),
        "polygon_cover_compact": (q_polygon_cover_compact, SQL_POLYGON_COVER),
        "cover_area": (q_cover_area, SQL_COVER_AREA),
        "cover_morphology": (q_cover_morphology, SQL_COVER_MORPHOLOGY),
        "cover_setops": (q_cover_setops, SQL_COVER_SETOPS),
        "spatial_join": (q_spatial_join, SQL_SPATIAL_JOIN),
        "spatial_join_shuffle": (q_spatial_join_shuffle, SQL_SPATIAL_JOIN),
        "knn_ring1": (q_knn, SQL_KNN),
        "dwithin": (q_dwithin, SQL_DWITHIN),
        "dwithin_shuffle": (q_dwithin_shuffle, SQL_DWITHIN),
        "ripley_pairs": (q_ripley_pairs, SQL_RIPLEY_PAIRS),
        "tile_render": (q_tile_render, SQL_TILE_RENDER),
        "dwithin_geodesic": (q_dwithin_geodesic, SQL_DWITHIN_GEODESIC),
        "nearest_geodesic": (q_nearest_geodesic, SQL_NEAREST_GEODESIC),
        "grid_dbscan": (q_grid_dbscan, SQL_GRID_DBSCAN),
        "box_join": (q_box_join, SQL_BOX_JOIN),
        "pip_nation": (q_pip, SQL_PIP),
        "tile_counts": (q_tile_counts, SQL_TILE_COUNTS),
        "tile_pyramid": (q_tile_pyramid, SQL_TILE_PYRAMID),
        "tile_quadkeys": (q_tile_quadkeys, SQL_TILE_QUADKEYS),
        "q1_lineitem": (q1_lineitem, SQL_Q1),
        "events_window": (q_events_window, SQL_EVENTS_WINDOW),
        "dedup_docs": (q_dedup_docs, SQL_DEDUP_DOCS),
        "token_stats": (q_token_stats, SQL_TOKEN_STATS),
        "ann_topk": (q_ann_topk, SQL_ANN_TOPK),
        "images_dedup": (q_images_dedup, sql_images_dedup(n_images)),
        "images_decode": (q_images_decode, sql_images_decode(n_images)),
        "images_tiles": (q_images_tiles, sql_images_tiles(n_images)),
        "images_sharpness": (q_images_sharpness,
                             sql_images_sharpness(n_images)),
        "images_pip": (q_images_pip, sql_images_pip(n_images)),
        "zonal_stats": (q_zonal_stats, sql_zonal_stats(n_images)),
        "minhash_neardup": (q_minhash_neardup, SQL_MINHASH_NEARDUP),
        "minhash_neardup_shuffle": (q_minhash_neardup_shuffle, SQL_MINHASH_NEARDUP),
        "neardup_clusters": (q_neardup_clusters, SQL_NEARDUP_CLUSTERS),
        "embed_neardup": (q_embed_neardup, SQL_EMBED_NEARDUP),
        "embed_neardup_lsh": (q_embed_neardup_lsh, sql_embed_neardup_lsh()),
        "fingerprint_dedup": (q_fingerprint_dedup, SQL_FINGERPRINT_DEDUP),
        "knn_shuffle": (q_knn_shuffle, SQL_KNN),
        "langid_confusion": (q_langid, SQL_LANGID),
        "quality_scores": (q_quality, SQL_QUALITY),
        "tfidf_topk": (q_tfidf, SQL_TFIDF),
        "simhash_neardup": (q_simhash_neardup, SQL_SIMHASH),
        "ann_ivf": (q_ann_ivf, SQL_ANN_TOPK),
        "ann_sq8": (q_ann_sq8, SQL_ANN_SQ8),
        "ann_pq": (q_ann_pq, SQL_ANN_PQ),
        "ann_ivf_pq": (q_ann_ivf_pq, SQL_ANN_PQ),
        "ann_filtered": (q_ann_filtered, SQL_ANN_FILTERED),
        "ann_hard_negatives": (q_ann_hard_negatives, SQL_ANN_HARD_NEGATIVES),
        "ann_ivf_sq8": (q_ann_ivf_sq8, SQL_ANN_SQ8),
        "ann_index_lifecycle": (q_ann_index_lifecycle, SQL_ANN_SQ8),
        "ann_index_pq_lifecycle": (q_ann_index_pq_lifecycle, SQL_ANN_PQ),
        "kmeans_clusters": (q_kmeans, sql_kmeans()),
        "semantic_dedup": (q_semantic_dedup, sql_semantic_dedup()),
        "corpus_curation": (q_corpus_curation, SQL_CORPUS_CURATION),
        "raster_assembly": (q_raster, sql_raster(n_images)),
        "compact_cells": (q_compact, SQL_COMPACT),
        "compact_roundtrip": (q_compact_roundtrip, SQL_COMPACT_ROUNDTRIP),
        "index_query_box": (q_index_query_box, SQL_INDEX_QUERY_BOX),
        "index_query_cells": (q_index_query_cells, SQL_INDEX_QUERY_CELLS),
        "index_lifecycle": (q_index_lifecycle, SQL_INDEX_LIFECYCLE),
        "events_sliding": (q_events_sliding, SQL_EVENTS_SLIDING),
        "events_session": (q_events_session, SQL_EVENTS_SESSION),
        "events_asof": (q_events_asof, SQL_EVENTS_ASOF),
        "events_range_join": (q_events_range_join, SQL_EVENTS_RANGE),
        "trajectory_stats": (q_trajectory_stats, SQL_TRAJECTORY),
        "line_cover": (q_line_cover, SQL_LINE_COVER),
        "raster_focal": (q_raster_focal, SQL_RASTER_FOCAL),
        "semivariogram": (q_semivariogram, SQL_SEMIVARIOGRAM),
        "distinct_kmv": (q_distinct_kmv, SQL_DISTINCT_KMV),
        "grouped_quantiles": (q_quantiles, SQL_QUANTILES),
        "grouped_quantiles_binned": (q_quantiles_binned, SQL_QUANTILES_BINNED),
        "stratified_sample": (q_stratified_sample, SQL_STRATIFIED_SAMPLE),
        "mix_sources": (q_mix_sources, SQL_MIX_SOURCES),
        "top_customers": (q_top_customers, SQL_TOP_CUSTOMERS),
        "customers_no_orders": (q_customers_no_orders, SQL_CUSTOMERS_NO_ORDERS),
        "customers_no_orders_bloom": (
            q_customers_no_orders_bloom, SQL_CUSTOMERS_NO_ORDERS,
        ),
        "images_hot_salted": (q_images_hot_salted, sql_images_tiles(n_images)),
        "images_features": (q_images_features,
                            sql_images_features(n_images) if include_sql else None),
        "images_ahash_neardup": (
            q_images_ahash_neardup,
            sql_images_ahash_neardup(n_images) if include_sql else None,
        ),
        "images_geo_neardup": (
            q_images_geo_neardup,
            sql_images_geo_neardup(n_images) if include_sql else None,
        ),
        "audio_features": (q_audio_features, sql_audio_features(n_audio)),
        "video_frames": (q_video_frames, sql_video_frames(n_video)),
        "video_scene_cuts": (q_video_scene_cuts,
                             sql_video_scene_cuts(n_video)),
        "knn_global": (q_knn_global, SQL_KNN_GLOBAL),
        "dup_spans": (q_dup_spans, SQL_DUP_SPANS),
        "decontaminate": (q_decontaminate, SQL_DECONTAMINATE),
        "setsim_join": (q_setsim_join, SQL_SETSIM),
        "cooccur_topk": (q_cooccur_topk, SQL_COOCCUR),
        "top_orders_monthly": (q_top_orders_monthly, SQL_TOP_ORDERS_MONTHLY),
        "hll_users": (q_hll_users, SQL_HLL_USERS),
        "od_matrix": (q_od_matrix, SQL_OD_MATRIX),
        "events_funnel": (q_events_funnel, SQL_EVENTS_FUNNEL),
        "running_stats": (q_running_stats, SQL_RUNNING_STATS),
        "events_pivot": (q_events_pivot, SQL_EVENTS_PIVOT),
        "max_concurrency": (q_max_concurrency, SQL_MAX_CONCURRENCY),
        "user_top_event": (q_user_top_event, SQL_USER_TOP_EVENT),
        "images_pip_anti": (q_images_pip_anti, sql_images_pip_anti(n_images)),
        "tile_centroid": (q_tile_centroid, sql_tile_centroid(n_images)),
        "revenue_topk": (q_revenue_topk, SQL_REVENUE_TOPK),
        "distinct_users": (q_distinct_users, SQL_DISTINCT_USERS),
        "heavy_cells": (q_heavy_cells, sql_heavy_cells(n_images)),
        "bm25_topk": (q_bm25_topk, SQL_BM25),
        "hotspot_gi": (q_hotspot_gi, SQL_HOTSPOT_GI),
        "skyline_parts": (q_skyline_parts, SQL_SKYLINE),
        "pagerank_suppliers": (q_pagerank, SQL_PAGERANK),
        "weighted_sample": (q_weighted_sample, SQL_WEIGHTED_SAMPLE),
        "adaptive_cells": (q_adaptive_cells, sql_adaptive_cells(n_images)),
        "tile_trend": (q_tile_trend, SQL_TILE_TREND),
        "event_transitions": (q_event_transitions, SQL_TRANSITIONS),
        "tile_growth": (q_tile_growth, SQL_TILE_GROWTH),
        "local_revenue_q5": (q_local_revenue, SQL_LOCAL_REVENUE),
        "idw_grid": (q_idw_grid, SQL_IDW_GRID),
        "caption_geoparse": (q_caption_geoparse, sql_caption_geoparse(n_images)),
        "cell_prefix_scan": (q_cell_prefix_scan, SQL_CELL_PREFIX_SCAN),
        "ann_mutual": (q_ann_mutual, SQL_ANN_MUTUAL),
        "colocation_lift": (q_colocation, SQL_COLOCATION),
        "tile_image_stats": (
            q_tile_image_stats,
            sql_tile_image_stats(n_images) if include_sql else None,
        ),
        "tile_rollup": (q_tile_rollup, SQL_TILE_ROLLUP),
        "tile_reconcile": (q_tile_reconcile, SQL_TILE_RECONCILE),
        "tile_mad": (q_tile_mad, SQL_TILE_MAD),
        "moran_i": (q_moran_i, SQL_MORAN_I),
        "geary_c": (q_geary_c, SQL_GEARY_C),
        "polygon_metrics": (q_polygon_metrics, SQL_POLYGON_METRICS),
        "segment_crossings": (q_segment_crossings, SQL_SEGMENT_CROSSINGS),
        "doc_chunks": (q_doc_chunks, SQL_DOC_CHUNKS),
        "resample_gapfill": (q_resample_gapfill, SQL_RESAMPLE_GAPFILL),
        "attribution": (q_attribution, SQL_ATTRIBUTION),
        "bearing_octants": (q_bearing_octants, SQL_BEARING_OCTANTS),
        "burst_days": (q_burst_days, SQL_BURST_DAYS),
        "grid_bfs": (q_grid_bfs, SQL_GRID_BFS),
        "map_match": (q_map_match, SQL_MAP_MATCH),
        "raster_convolve": (q_raster_convolve, SQL_RASTER_CONVOLVE),
        "doc_rarity": (q_doc_rarity, SQL_DOC_RARITY),
        "interval_union": (q_interval_union, SQL_INTERVAL_UNION),
        "knn_classify": (q_knn_classify, SQL_KNN_CLASSIFY),
        "bigram_topk": (q_bigram_topk, SQL_BIGRAM_TOPK),
        "accessibility": (q_accessibility, SQL_ACCESSIBILITY),
        "segment_entropy": (q_segment_entropy, SQL_SEGMENT_ENTROPY),
        "volume_shipping": (q_volume_shipping, SQL_VOLUME_SHIPPING),
        "flow_direction": (q_flow_direction, SQL_FLOW_DIRECTION),
        "median_acctbal": (q_median_acctbal, SQL_MEDIAN_ACCTBAL),
        "cusum_changepoint": (q_cusum_changepoint, SQL_CUSUM_CHANGEPOINT),
        "containment_join": (q_containment_join, SQL_CONTAINMENT_JOIN),
        "stay_points": (q_stay_points, SQL_STAY_POINTS),
        "spatiotemporal_pairs": (q_spatiotemporal_pairs,
                                 SQL_SPATIOTEMPORAL_PAIRS),
        "rrf_fusion": (q_rrf_fusion, SQL_RRF_FUSION),
        "corr_qty_discount": (q_corr_qty_discount, SQL_CORR_QTY_DISCOUNT),
        "iqr_outliers": (q_iqr_outliers, SQL_IQR_OUTLIERS),
        "hits_suppliers": (q_hits_suppliers, SQL_HITS_SUPPLIERS),
        "huff_shares": (q_huff_shares, SQL_HUFF_SHARES),
        "ks_drift": (q_ks_drift, SQL_KS_DRIFT),
        "leakage_split": (q_leakage_split, SQL_LEAKAGE_SPLIT),
        "hll_tile_users": (q_hll_tile_users, SQL_HLL_TILE_USERS),
        "frequent_pairs": (q_frequent_pairs, SQL_FREQUENT_PAIRS),
        "cell_gini": (q_cell_gini, SQL_CELL_GINI),
        "assoc_rules": (q_assoc_rules, SQL_ASSOC_RULES),
        "ann_recall": (q_ann_recall, SQL_ANN_RECALL),
        "chi2_independence": (q_chi2_independence, SQL_CHI2_INDEPENDENCE),
        "ks_by_type": (q_ks_by_type, SQL_KS_BY_TYPE),
        "auc_mwu": (q_auc_mwu, SQL_AUC_MWU),
        "lm_surprisal": (q_lm_surprisal, SQL_LM_SURPRISAL),
        "sde_ellipse": (q_sde_ellipse, SQL_SDE_ELLIPSE),
        "join_counts": (q_join_counts, SQL_JOIN_COUNTS),
        "hausdorff_pairs": (q_hausdorff_pairs, SQL_HAUSDORFF_PAIRS),
        "silhouette_labels": (q_silhouette_labels, SQL_SILHOUETTE),
        "dsir_weights": (q_dsir_weights, _sql_dsir()),
        "dsir_resample": (q_dsir_resample, _sql_dsir_resample()),
        "doc_keywords": (q_doc_keywords, SQL_DOC_KEYWORDS),
        "rbo_rankings": (q_rbo_rankings, _sql_rbo()),
        "nb_langid": (q_nb_langid, _sql_nb()),
        "minhash_index_lifecycle": (q_minhash_index_lifecycle,
                                    SQL_MINHASH_NEARDUP),
        "knox_test": (q_knox_test, SQL_KNOX_TEST),
        "variogram_map": (q_variogram_map, SQL_VARIOGRAM_MAP),
        "covariogram": (q_covariogram, SQL_COVARIOGRAM),
        "gravity_calibration": (q_gravity_calibration,
                                SQL_GRAVITY_CALIBRATION),
        "areal_interpolation": (q_areal_interpolation,
                                SQL_AREAL_INTERPOLATION),
        "tile_mk_trend": (q_tile_mk_trend, SQL_TILE_MK_TREND),
        "dbscan_centroids": (q_dbscan_centroids, SQL_DBSCAN_CENTROIDS),
        "gains_deciles": (q_gains_deciles, SQL_GAINS_DECILES),
        "nn_distance_hist": (q_nn_distance_hist, SQL_NN_DISTANCE_HIST),
        "ks_by_tile": (q_ks_by_tile, SQL_KS_BY_TILE),
        "fano_burstiness": (q_fano_burstiness, SQL_FANO_BURSTINESS),
        "facility_coverage": (q_facility_coverage, SQL_FACILITY_COVERAGE),
        "longest_streak": (q_longest_streak, SQL_LONGEST_STREAK),
        "lag1_autocorr": (q_lag1_autocorr, SQL_LAG1_AUTOCORR),
        "hour_concentration": (q_hour_concentration,
                               SQL_HOUR_CONCENTRATION),
        "spherical_resultant": (q_spherical_resultant,
                                SQL_SPHERICAL_RESULTANT),
        "cycle_time_median": (q_cycle_time_median, SQL_CYCLE_TIME_MEDIAN),
        "spatial_entropy": (q_spatial_entropy, SQL_SPATIAL_ENTROPY),
        "pareto_share": (q_pareto_share, SQL_PARETO_SHARE),
        "benford_digits": (q_benford_digits, SQL_BENFORD_DIGITS),
        "simpson_diversity": (q_simpson_diversity, SQL_SIMPSON_DIVERSITY),
        "week_overlap": (q_week_overlap, SQL_WEEK_OVERLAP),
        "interarrival_median": (q_interarrival_median,
                                SQL_INTERARRIVAL_MEDIAN),
        "rolling_wau": (q_rolling_wau, SQL_ROLLING_WAU),
        "label_centroids": (q_label_centroids, SQL_LABEL_CENTROIDS),
        "cell_bbox": (q_cell_bbox, SQL_CELL_BBOX),
        "precision_error": (q_precision_error, SQL_PRECISION_ERROR),
        "hilbert_order": (q_hilbert_order, SQL_HILBERT_ORDER),
        "cell_area": (q_cell_area, SQL_CELL_AREA),
        "where_zones": (q_where_zones, SQL_WHERE_ZONES),
        "trimmed_mean": (q_trimmed_mean, SQL_TRIMMED_MEAN),
        "ntile_hist": (q_ntile_hist, SQL_NTILE_HIST),
        "tile_diversity": (q_tile_diversity, SQL_TILE_DIVERSITY),
        "cohort_retention": (q_cohort_retention, SQL_COHORT_RETENTION),
        "triangle_count": (q_triangle_count, SQL_TRIANGLE_COUNT),
        "kcore": (q_kcore, SQL_KCORE),
        "fuzzy_edit1": (q_fuzzy_edit1, SQL_FUZZY_EDIT1),
        "tile_sen_slope": (q_tile_sen_slope, SQL_TILE_SEN_SLOPE),
        "lisa_clusters": (q_lisa_clusters, SQL_LISA_CLUSTERS),
        "quadrat_csr": (q_quadrat_csr, SQL_QUADRAT_CSR),
        "gopher_repetition": (q_gopher_repetition, SQL_GOPHER_REPETITION),
        "emerging_hotspots": (q_emerging_hotspots, SQL_EMERGING_HOTSPOTS),
    }

"""H3/S2-style hierarchy over the Morton cell substrate (SURVEY.md §2.5 N1).

The int64 Morton code at ``bits`` precision forms a quadtree when stepped by
2 bits (4 children/level — S2-like) and the base32 string hierarchy when
stepped by 5 bits (32 children/level — geohash-string-like). All ops are
vectorized numpy; the distributed variants (``compact_dataset``) co-locate
sibling cells with a prefix shuffle first.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import codec
# module level (worker-executed `polygon_cover_dataset.strip` must not
# import georay at runtime — CLAUDE.md invariant)
from georay.geometry import points_in_ring
from georay.runtime import by_key

_U = np.uint64


def cell_to_parent(code, bits: int, parent_bits: int) -> np.ndarray:
    """Parent cell at a coarser bit precision (prefix of the Morton code)."""
    if parent_bits > bits:
        raise ValueError("parent_bits must be <= bits")
    return np.asarray(code, dtype=np.uint64) >> _U(bits - parent_bits)


def cell_to_children(code, bits: int, child_bits: int) -> np.ndarray:
    """All children at a finer precision → shape (N, 2**(child_bits-bits)).

    Callers in Ray stages explode this to rows with ``np.repeat`` on the
    sibling axis (1 row → 2^Δ rows), never with Python loops."""
    if child_bits < bits:
        raise ValueError("child_bits must be >= bits")
    d = child_bits - bits
    code = np.asarray(code, dtype=np.uint64)
    sib = np.arange(1 << d, dtype=np.uint64)
    return (code[:, None] << _U(d)) | sib[None, :]


def k_ring(code, bits: int, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """All cells within Chebyshev distance k in grid space (incl. center).

    Returns ``(codes[N, (2k+1)**2], valid[N, (2k+1)**2])``; longitude wraps,
    latitude clamps (invalid rows masked). k=1 ≡ neighbors+self.
    """
    nx, ny = codec.split_bits(bits)
    x, y = codec.deinterleave(code, bits)
    dxs, dys = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1), indexing="ij")
    dxs = dxs.reshape(-1)
    dys = dys.reshape(-1)
    mask_x = (1 << nx) - 1
    xn = (x[:, None] + dxs[None, :]) & mask_x
    yn = y[:, None] + dys[None, :]
    valid = (yn >= 0) & (yn < (1 << ny))
    yn = np.clip(yn, 0, (1 << ny) - 1)
    codes = codec.interleave(xn.reshape(-1), yn.reshape(-1), bits).reshape(xn.shape)
    return codes, valid


def ring_probe(code, bits: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every query's k-ring as flat ``(query_idx, cell)`` pairs, query-major
    and in ring order (``cell`` int64): cells past a latitude edge are
    dropped, and a cell that a ring wider than the longitude axis reaches
    twice (it wraps) is kept once, so no candidate pair repeats. The one
    candidate generator of the k-ring plans in ``ops.knn``."""
    ring_cells, valid = k_ring(code, bits, k)
    qidx = np.repeat(np.arange(ring_cells.shape[0]), ring_cells.shape[1])
    ok = valid.reshape(-1)
    qidx, cell = qidx[ok], ring_cells.reshape(-1).astype(np.int64)[ok]
    if (2 * k + 1) > (1 << codec.split_bits(bits)[0]):
        # only tiny grids wrap, so the int64 combo cannot overflow
        combo = qidx * np.int64(1 << bits) + cell
        _, first = np.unique(combo, return_index=True)
        keep = np.zeros(cell.size, dtype=bool)
        keep[first] = True
        qidx, cell = qidx[keep], cell[keep]
    return qidx, cell


def compact(codes: np.ndarray, bits: int, step: int = 2,
            min_bits: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Replace complete sibling sets by their parent, repeatedly (H3 compact).

    ``step=2`` → quadtree siblings (4/level); ``step=5`` → base32 string
    levels (32/level). Input cells must be unique and at one precision.
    No parent is coarser than ``min_bits`` (nor than ``step``).
    Returns ``(codes, code_bits)`` — mixed precisions after compaction.

    In-memory numpy (sort + run-length); the distributed variant is
    :func:`compact_dataset`.
    """
    codes = np.unique(np.asarray(codes, dtype=np.uint64))
    out_codes: list[np.ndarray] = []
    out_bits: list[np.ndarray] = []
    cur = codes
    cur_bits = bits
    fanout = 1 << step
    floor = max(step, min_bits)
    while cur_bits - step >= floor and cur.size >= fanout:
        parents = cur >> _U(step)
        uniq, counts = np.unique(parents, return_counts=True)
        full = uniq[counts == fanout]
        if full.size == 0:
            break
        is_promoted = np.isin(parents, full)
        keep = cur[~is_promoted]
        out_codes.append(keep)
        out_bits.append(np.full(keep.size, cur_bits, dtype=np.int8))
        cur = full
        cur_bits -= step
    out_codes.append(cur)
    out_bits.append(np.full(cur.size, cur_bits, dtype=np.int8))
    return np.concatenate(out_codes), np.concatenate(out_bits)


def uncompact(
    codes: np.ndarray, code_bits: np.ndarray, target_bits: int
) -> np.ndarray:
    """Expand mixed-precision cells to a single finer precision."""
    codes = np.asarray(codes, dtype=np.uint64)
    code_bits = np.asarray(code_bits)
    out = []
    for b in np.unique(code_bits):
        sel = codes[code_bits == b]
        out.append(cell_to_children(sel, int(b), target_bits).reshape(-1))
    if not out:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(out)


def uncompact_dataset(ds, target_bits: int, cell_col: str = "cell",
                      bits_col: str = "cell_bits"):
    """Distributed uncompact: mixed-precision cells (the output shape of
    :func:`compact_dataset`) exploded to ``target_bits`` — 1 row →
    ``2^(target-bits)`` rows, vectorized per precision group within each
    batch (flat-map style, no shuffle). Output: ``cell:int64`` at one
    precision."""
    def explode(t):
        codes = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        code_bits = t[bits_col].to_numpy(zero_copy_only=False)
        out = uncompact(codes, code_bits, target_bits)
        return pa.table({cell_col: out.astype(np.int64)})

    return ds.map_batches(explode, batch_format="pyarrow")


def compact_dataset(ds, cell_col: str, bits: int, step: int = 2, anchor_bits: int = 10):
    """Distributed compact: ``runtime.by_key`` on the coarse anchor prefix
    puts all potential siblings in one bucket, then numpy-compact per
    bucket, stopping at ``anchor_bits``.

    A bucket holds many anchors, so the stop is what keeps the result
    independent of which anchors share a bucket: a fully covered anchor
    compacts to one ``anchor_bits`` cell and never on to its parent.
    ``anchor_bits`` must be a multiple of ``step`` below ``bits``
    (siblings share their parent prefix). Output schema:
    ``cell:int64, cell_bits:int8``.
    """
    if (bits - anchor_bits) % step:
        raise ValueError("bits - anchor_bits must be a multiple of step")

    def add_anchor(t):
        cells = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        anchor = (cells >> _U(bits - anchor_bits)).astype(np.int64)
        return pa.table({cell_col: cells.astype(np.int64), "anchor": anchor})

    def per_bucket(t):
        cells = t[cell_col].to_numpy().astype(np.uint64)
        out, out_bits = compact(cells, bits, step=step, min_bits=anchor_bits)
        return pa.table({"cell": out.astype(np.int64),
                         "cell_bits": out_bits.astype(np.int8)})

    return by_key(ds.map_batches(add_anchor, batch_format="pyarrow"),
                  "anchor", per_bucket,
                  pa.schema([("cell", pa.int64()), ("cell_bits", pa.int8())]))


# -------------------------------------------------- polygon cover (polyfill)


def cell_centers(x: np.ndarray, y: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid coordinates → cell-center lon/lat (the polyfill test point).

    Mirrors the SQL-twin formula verbatim: ``(x + 0.5) * 360 / 2^nx - 180``
    (and the lat analogue) — keep the float expression order identical in
    any oracle."""
    nx, ny = codec.split_bits(bits)
    lon = (x.astype(np.float64) + 0.5) * (360.0 / (1 << nx)) - 180.0
    lat = (y.astype(np.float64) + 0.5) * (180.0 / (1 << ny)) - 90.0
    return lon, lat


def polygon_cover(ring_lon, ring_lat, bits: int,
                  chunk: int = 1 << 20) -> np.ndarray:
    """Cells whose CENTER falls inside the polygon ring — the H3
    ``polyfill`` analogue over the Morton substrate (SURVEY.md N1 depth).

    Center containment (not overlap) matches H3's polyfill contract: every
    point of the plane belongs to exactly one covering cell, so covers of
    adjacent polygons partition their union with no double-counted cells.
    Non-convex rings supported (crossing-number ray cast). Driver-side
    numpy, enumerating the polygon's bbox grid in ``chunk``-cell slabs so
    peak memory is O(chunk); for covers too large for one machine use
    :func:`polygon_cover_dataset`. Returns sorted uint64 codes at ``bits``.
    """
    rx = np.asarray(ring_lon, dtype=np.float64)
    ry = np.asarray(ring_lat, dtype=np.float64)
    nx, ny = codec.split_bits(bits)
    sx, sy = 360.0 / (1 << nx), 180.0 / (1 << ny)
    x0 = max(int(np.floor((rx.min() + 180.0) / sx)), 0)
    x1 = min(int(np.floor((rx.max() + 180.0) / sx)), (1 << nx) - 1)
    y0 = max(int(np.floor((ry.min() + 90.0) / sy)), 0)
    y1 = min(int(np.floor((ry.max() + 90.0) / sy)), (1 << ny) - 1)
    if x1 < x0 or y1 < y0:
        return np.empty(0, dtype=np.uint64)
    width = x1 - x0 + 1
    rows_per_slab = max(1, chunk // width)
    out = []
    for ys in range(y0, y1 + 1, rows_per_slab):
        ye = min(ys + rows_per_slab - 1, y1)
        gx, gy = np.meshgrid(
            np.arange(x0, x1 + 1, dtype=np.int64),
            np.arange(ys, ye + 1, dtype=np.int64),
            indexing="ij",
        )
        gx, gy = gx.reshape(-1), gy.reshape(-1)
        lon, lat = cell_centers(gx, gy, bits)
        keep = points_in_ring(lon, lat, rx, ry)
        if keep.any():
            out.append(codec.interleave(gx[keep], gy[keep], bits))
    if not out:
        return np.empty(0, dtype=np.uint64)
    return np.sort(np.concatenate(out))


def polygon_cover_compact(ring_lon, ring_lat, bits: int, step: int = 2,
                          chunk: int = 1 << 20) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-precision polyfill: the center cover with complete sibling
    sets promoted to parents (H3 compact of the cover) — the shape to ship
    when a cover at fine bits would be millions of cells. Lossless:
    ``uncompact(...) == polygon_cover(...)``."""
    return compact(polygon_cover(ring_lon, ring_lat, bits, chunk=chunk), bits,
                   step=step)


def polygon_cover_dataset(ring_lon, ring_lat, bits: int,
                          rows_per_task: int = 64):
    """Distributed polyfill: the bbox's y-range is split into horizontal
    strips (``ray.data.range`` over strip ids), each task enumerating and
    ray-casting only its strip — cover size is unbounded by driver memory
    and the output stays a streamed Dataset of ``cell:int64`` rows. The
    ring (small) ships by closure capture once per task."""
    import ray.data

    rx = np.asarray(ring_lon, dtype=np.float64)
    ry = np.asarray(ring_lat, dtype=np.float64)
    nx, ny = codec.split_bits(bits)
    sx, sy = 360.0 / (1 << nx), 180.0 / (1 << ny)
    x0 = max(int(np.floor((rx.min() + 180.0) / sx)), 0)
    x1 = min(int(np.floor((rx.max() + 180.0) / sx)), (1 << nx) - 1)
    y0 = max(int(np.floor((ry.min() + 90.0) / sy)), 0)
    y1 = min(int(np.floor((ry.max() + 90.0) / sy)), (1 << ny) - 1)
    if x1 < x0 or y1 < y0:
        return ray.data.from_arrow(
            pa.table({"cell": pa.array([], pa.int64())})
        )
    n_strips = (y1 - y0 + rows_per_task) // rows_per_task

    def strip(t: pa.Table) -> pa.Table:
        out = []
        for s in t["id"].to_numpy(zero_copy_only=False):
            ys = y0 + int(s) * rows_per_task
            ye = min(ys + rows_per_task - 1, y1)
            gx, gy = np.meshgrid(
                np.arange(x0, x1 + 1, dtype=np.int64),
                np.arange(ys, ye + 1, dtype=np.int64),
                indexing="ij",
            )
            gx, gy = gx.reshape(-1), gy.reshape(-1)
            lon, lat = cell_centers(gx, gy, bits)
            keep = points_in_ring(lon, lat, rx, ry)
            out.append(codec.interleave(gx[keep], gy[keep], bits))
        cells = np.concatenate(out) if out else np.empty(0, np.uint64)
        return pa.table({"cell": np.sort(cells).astype(np.int64)})

    return ray.data.range(n_strips).map_batches(
        strip, batch_format="pyarrow", batch_size=1
    )


# ---------------------------------------------- web-map tile ids (quadkeys)


def cell_to_zxy(code, bits: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Slippy-map tile id (z, x, y) of an even-bits Morton cell: z = bits/2
    with a 2^z × 2^z-ish grid (x from lon bits, y from lat bits). Web-map y
    grows southward from the top; this engine's grid y grows northward from
    -90°, so y is flipped against the grid height."""
    if bits % 2:
        raise ValueError("zxy tiles need an even bit precision")
    _, ny = codec.split_bits(bits)
    x, y = codec.deinterleave(code, bits)
    return bits // 2, x, ((1 << ny) - 1) - y


def cell_to_quadkey(code, bits: int):
    """Bing-maps quadkey strings of even-bits Morton cells, vectorized.

    One base-4 digit per zoom level, MSB-first: digit = 2·y_bit + x_bit in
    WEB-MAP orientation (y flipped, as in :func:`cell_to_zxy`) — a parent
    tile's quadkey is the child's string prefix, the property tile pyramids
    key on. Returns a pyarrow string array (digits built as one uint8
    matrix, no per-row formatting)."""
    z, x, y = cell_to_zxy(code, bits)
    x = x.astype(np.uint64)
    y = y.astype(np.uint64)
    shifts = np.arange(z - 1, -1, -1, dtype=np.uint64)[None, :]
    digits = (((y[:, None] >> shifts) & _U(1)) * _U(2)
              + ((x[:, None] >> shifts) & _U(1)))
    chars = (digits + _U(48)).astype(np.uint8)  # '0'..'3'
    n = chars.shape[0]
    fsb = pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(z), n, [None, pa.py_buffer(chars.tobytes())]
    )
    return fsb.cast(pa.string())

"""Cell-index substrate: vectorized int64 Morton / base32 geohash codecs.

Semantics match ``fbriol/pangeo-geohash``'s ``geohash.core.{string,int64}``
modules (SURVEY.md §2.1–2.2; the reference checkout was empty at survey time,
so semantics were validated against public geohash test vectors — SURVEY.md §8):

- bit order: **longitude first**, MSB-first interleave;
- base32 alphabet ``0123456789bcdefghjkmnpqrstuvwxyz`` (i, l, o, a excluded);
- string precision ``p`` chars ≡ ``5*p`` bits;
- ``decode`` returns the **cell center**;
- int64 codes are **right-aligned** with an explicit ``bits`` precision
  (the engine-canonical choice documented in SURVEY.md §8; the left-aligned
  64-bit form is ``code << (64 - bits)``).

Everything here is pure numpy over 1-D arrays (``SortedLookup`` also holds a
pyarrow table) — no Ray, no Python row loops — so it can run zero-copy inside
``Dataset.map_batches(batch_format="pyarrow")``.

Known vectors (validated, SURVEY.md §8 / FIXTURES.md F3)::

    encode_str([-5.603], [42.605], 5)        == [b"ezs42"]
    encode_str([10.40744], [57.64911], 11)   == [b"u4pruydqqvj"]
    decode_str([b"ezs42"])                   == ([-5.60302734375], [42.60498046875])
    encode([-5.603], [42.605], 25)           == [0xdfe082]
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

ALPHABET = b"0123456789bcdefghjkmnpqrstuvwxyz"
_ALPHABET_ARR = np.frombuffer(ALPHABET, dtype=np.uint8)
# 256-entry inverse lookup (invalid chars -> 255)
_INV = np.full(256, 255, dtype=np.uint8)
_INV[_ALPHABET_ARR] = np.arange(32, dtype=np.uint8)

_U = np.uint64
_M0 = _U(0x00000000FFFFFFFF)
_M1 = _U(0x0000FFFF0000FFFF)
_M2 = _U(0x00FF00FF00FF00FF)
_M3 = _U(0x0F0F0F0F0F0F0F0F)
_M4 = _U(0x3333333333333333)
_M5 = _U(0x5555555555555555)

MAX_BITS = 64
MAX_STR_PRECISION = 12


def split_bits(bits: int) -> tuple[int, int]:
    """Number of (lon, lat) bits for a total bit precision.

    Longitude gets the extra bit when ``bits`` is odd (lon-first interleave).
    """
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in [1, {MAX_BITS}], got {bits}")
    return (bits + 1) // 2, bits // 2


def _spread(x: np.ndarray) -> np.ndarray:
    """Insert a zero bit between each bit of a <=32-bit value (uint64 out)."""
    x = x.astype(np.uint64) & _M0
    x = (x | (x << _U(16))) & _M1
    x = (x | (x << _U(8))) & _M2
    x = (x | (x << _U(4))) & _M3
    x = (x | (x << _U(2))) & _M4
    x = (x | (x << _U(1))) & _M5
    return x


def _compact(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread` — gather the even-position bits."""
    x = x.astype(np.uint64) & _M5
    x = (x | (x >> _U(1))) & _M4
    x = (x | (x >> _U(2))) & _M3
    x = (x | (x >> _U(4))) & _M2
    x = (x | (x >> _U(8))) & _M1
    x = (x | (x >> _U(16))) & _M0
    return x


def xy_from_lonlat(lon, lat, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer grid coordinates at a bit precision.

    ``x = floor((lon+180)/360 * 2^nx)`` clipped to ``[0, 2^nx-1]`` (so
    lon=180 / lat=90 land in the last cell). This exact float64 expression is
    mirrored verbatim in the DuckDB oracle SQL (SURVEY.md §5.6): Morton
    interleave is a bijection of (x, y), so cell equality ≡ (x, y) equality.
    """
    nx, ny = split_bits(bits)
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    x = np.floor((lon + 180.0) / 360.0 * float(1 << nx)).astype(np.int64)
    y = np.floor((lat + 90.0) / 180.0 * float(1 << ny)).astype(np.int64)
    np.clip(x, 0, (1 << nx) - 1, out=x)
    np.clip(y, 0, (1 << ny) - 1, out=y)
    return x, y


def interleave(x, y, bits: int) -> np.ndarray:
    """Morton-combine grid coords: lon bits at even MSB-first positions."""
    nx, ny = split_bits(bits)
    sx = _spread(np.asarray(x))
    sy = _spread(np.asarray(y))
    if bits % 2:  # odd: LSB of the code is the last lon bit
        return sx | (sy << _U(1))
    return (sx << _U(1)) | sy


def deinterleave(code, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a Morton code back into integer grid (x, y)."""
    code = np.asarray(code, dtype=np.uint64)
    if bits % 2:
        x = _compact(code)
        y = _compact(code >> _U(1))
    else:
        x = _compact(code >> _U(1))
        y = _compact(code)
    return x.astype(np.int64), y.astype(np.int64)


def encode(lon, lat, bits: int = 60) -> np.ndarray:
    """Vectorized int64 geohash (Morton) encode → uint64 codes.

    Parity: ``geohash.core.int64.encode`` (SURVEY.md §2.2 I1)."""
    x, y = xy_from_lonlat(lon, lat, bits)
    return interleave(x, y, bits)


def cell_center(x, y, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Center lon/lat of grid cells."""
    nx, ny = split_bits(bits)
    lon = (np.asarray(x, dtype=np.float64) + 0.5) / float(1 << nx) * 360.0 - 180.0
    lat = (np.asarray(y, dtype=np.float64) + 0.5) / float(1 << ny) * 180.0 - 90.0
    return lon, lat


def decode(code, bits: int, round_: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Int64 decode to the cell center (SURVEY.md §2.2 I2).

    ``round_=True`` rounds the center to the number of decimal digits implied
    by the cell error (engine-frozen rule; upstream's exact rounding is a
    MUST-VERIFY in SURVEY.md §7)."""
    x, y = deinterleave(code, bits)
    lon, lat = cell_center(x, y, bits)
    if round_:
        lon_err, lat_err = error_with_precision(bits)
        lon = np.round(lon, max(0, int(np.ceil(-np.log10(lon_err)))))
        lat = np.round(lat, max(0, int(np.ceil(-np.log10(lat_err)))))
    return lon, lat


def encode_str(lon, lat, precision: int = 12) -> np.ndarray:
    """Vectorized base32 string geohash → numpy ``S{precision}`` array.

    Parity: ``geohash.core.string.encode`` (SURVEY.md §2.1 S1)."""
    if not 1 <= precision <= MAX_STR_PRECISION:
        raise ValueError(f"precision must be in [1, {MAX_STR_PRECISION}]")
    code = encode(lon, lat, 5 * precision)
    return int_to_str(code, precision)


def int_to_str(code, precision: int) -> np.ndarray:
    """uint64 codes at ``5*precision`` bits → base32 strings (S{p} array)."""
    code = np.asarray(code, dtype=np.uint64)
    n = code.shape[0]
    idx = np.empty((n, precision), dtype=np.uint8)
    for k in range(precision):
        shift = _U(5 * (precision - 1 - k))
        idx[:, k] = ((code >> shift) & _U(31)).astype(np.uint8)
    chars = _ALPHABET_ARR[idx]
    return chars.reshape(-1).view(f"S{precision}")


def str_to_int(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Base32 strings (numpy S{p} / object of bytes) → (uint64 codes, precision)."""
    codes = np.asarray(codes)
    if codes.dtype.kind != "S":
        codes = codes.astype("S")
    p = codes.dtype.itemsize
    raw = codes.view(np.uint8).reshape(-1, p)
    vals = _INV[raw]
    if (vals == 255).any():
        raise ValueError("invalid geohash character")
    out = np.zeros(codes.shape[0], dtype=np.uint64)
    for k in range(p):
        out = (out << _U(5)) | vals[:, k].astype(np.uint64)
    return out, p


def decode_str(codes, round_: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """String decode to cell centers (SURVEY.md §2.1 S2)."""
    ints, p = str_to_int(codes)
    return decode(ints, 5 * p, round_=round_)


def error_with_precision(bits: int) -> tuple[float, float]:
    """(lon, lat) cell size in degrees at a bit precision (S7/I7)."""
    nx, ny = split_bits(bits)
    return 360.0 / (1 << nx), 180.0 / (1 << ny)


def error_with_str_precision(precision: int) -> tuple[float, float]:
    return error_with_precision(5 * precision)


def bounding_box(code, bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cell corners (lon_min, lat_min, lon_max, lat_max) — S3/I3."""
    nx, ny = split_bits(bits)
    x, y = deinterleave(code, bits)
    lon_min = x.astype(np.float64) / float(1 << nx) * 360.0 - 180.0
    lat_min = y.astype(np.float64) / float(1 << ny) * 180.0 - 90.0
    lon_err, lat_err = error_with_precision(bits)
    return lon_min, lat_min, lon_min + lon_err, lat_min + lat_err


def grid_properties(
    box: tuple[float, float, float, float] | None, bits: int
) -> tuple[int, int, int, int, int]:
    """Cover-grid shape for a (box, precision) — S6/I6.

    ``box`` is (min_lon, min_lat, max_lon, max_lat); None = whole earth.
    Returns ``(sw_code, lon_boxes, lat_boxes, x0, y0)`` — the code of the SW
    cell plus grid shape (cells intersecting the closed box).
    """
    nx, ny = split_bits(bits)
    if box is None:
        box = (-180.0, -90.0, 180.0, 90.0)
    min_lon, min_lat, max_lon, max_lat = box
    if min_lon > max_lon or min_lat > max_lat:
        raise ValueError(
            "inverted box (antimeridian-crossing?): split it into two "
            "non-crossing boxes, as georay.geometry.split_antimeridian_ring "
            "does for rings"
        )
    # scalar path, mirroring xy_from_lonlat exactly
    xs, ys = xy_from_lonlat(np.array([min_lon, max_lon]), np.array([min_lat, max_lat]), bits)
    x0, x1 = int(xs[0]), int(xs[1])
    y0, y1 = int(ys[0]), int(ys[1])
    sw_code = int(interleave(np.array([x0]), np.array([y0]), bits)[0])
    return sw_code, x1 - x0 + 1, y1 - y0 + 1, x0, y0


def bounding_boxes(
    box: tuple[float, float, float, float] | None = None, bits: int = 5
) -> np.ndarray:
    """Enumerate all cells of a precision intersecting ``box`` (S4/I4).

    In-memory variant — caller must keep covers small (drive-side scalars,
    polygon covers). For huge covers, stream the enumeration as a Dataset
    (``ray.data.range`` over the grid shape + interleave in ``map_batches`` —
    the pattern in ``georay.queries.q_cover_grid``)."""
    _, lon_boxes, lat_boxes, x0, y0 = grid_properties(box, bits)
    n = lon_boxes * lat_boxes
    if n > 50_000_000:
        raise ValueError(
            f"cover of {n} cells: enumerate it as a streamed Dataset instead "
            "(ray.data.range over the grid shape -> interleave in map_batches; "
            "see georay.queries.q_cover_grid for the pattern)"
        )
    idx = np.arange(n, dtype=np.int64)
    nx, _ = split_bits(bits)
    x = (x0 + idx % lon_boxes) & ((1 << nx) - 1)
    y = y0 + idx // lon_boxes
    return interleave(x, y, bits)


NEIGHBOR_ORDER = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")


def neighbors(code, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """8-neighborhood of each cell (S5/I5).

    Longitude wraps across the antimeridian; latitude clamps at the poles
    (out-of-range rows masked out). Returns ``(codes[N,8], valid[N,8])``.

    ORDER CONTRACT (frozen): compass clockwise from North —
    ``N, NE, E, SE, S, SW, W, NW`` (:data:`NEIGHBOR_ORDER`). The upstream
    reference's order is unverifiable (mount empty — SURVEY.md §5.4
    MUST-VERIFY); this engine freezes and documents its own so code indexing
    ``neighbors()[:, i]`` is stable across versions.
    """
    nx, ny = split_bits(bits)
    x, y = deinterleave(code, bits)
    # (dx, dy) per compass position; x grows east, y grows north
    offs = [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]
    n = x.shape[0]
    out = np.empty((n, 8), dtype=np.uint64)
    valid = np.empty((n, 8), dtype=bool)
    mask_x = (1 << nx) - 1
    for j, (dx, dy) in enumerate(offs):
        xn = (x + dx) & mask_x  # antimeridian wrap
        yn = y + dy
        ok = (yn >= 0) & (yn < (1 << ny))
        out[:, j] = interleave(xn, np.clip(yn, 0, (1 << ny) - 1), bits)
        valid[:, j] = ok
    return out, valid


def neighbors_str(codes) -> np.ndarray:
    """String neighbors of a single-precision batch; masked cells dropped
    per-row is not representable in a rectangular array, so invalid (pole)
    neighbors repeat the center cell — callers needing exact sets use the
    mask from :func:`neighbors`."""
    ints, p = str_to_int(codes)
    codes8, valid = neighbors(ints, 5 * p)
    center = np.asarray(ints, dtype=np.uint64)[:, None]
    codes8 = np.where(valid, codes8, center)
    return int_to_str(codes8.reshape(-1), p).reshape(-1, 8)


_EARTH_R = 6371008.8  # mean Earth radius, m (spherical model; SURVEY.md §2.1 S8
_WGS84_A = 6378137.0  # semi-major axis, m
_WGS84_E2 = 0.00669437999014  # first eccentricity squared


def _authalic_q(lat_rad: np.ndarray) -> np.ndarray:
    """q(φ) of the ellipsoidal zone-area formula (Snyder 1987, eq. 3-12):
    the area between two latitudes over Δλ is (a²Δλ/2)·(q(φ₂) − q(φ₁))."""
    e = np.sqrt(_WGS84_E2)
    s = np.sin(lat_rad)
    return (1.0 - _WGS84_E2) * (
        s / (1.0 - _WGS84_E2 * s * s)
        + (1.0 / (2.0 * e)) * np.log((1.0 + e * s) / (1.0 - e * s))
    )


def area(code, bits: int, model: str = "sphere") -> np.ndarray:
    """Cell area in m² (S8).

    ``model="sphere"`` (default, frozen round-1 semantics): spherical excess
    ``R²·Δλ·(sin φ₂ − sin φ₁)`` on the mean-radius sphere.
    ``model="wgs84"``: geodesic zone area on the WGS84 ellipsoid
    (Snyder's authalic q — exact for the lat-band × lon-slice cells this
    grid produces; ~0.3% different from the sphere at mid-latitudes, the
    deviation SURVEY.md S8 flagged as the upstream MUST-VERIFY)."""
    lon_min, lat_min, lon_max, lat_max = bounding_box(code, bits)
    dlam = np.radians(lon_max - lon_min)
    if model == "wgs84":
        return (
            _WGS84_A * _WGS84_A * dlam / 2.0
            * (_authalic_q(np.radians(lat_max)) - _authalic_q(np.radians(lat_min)))
        )
    if model != "sphere":
        raise ValueError(f"unknown area model {model!r}")
    return (
        _EARTH_R * _EARTH_R * dlam * (np.sin(np.radians(lat_max)) - np.sin(np.radians(lat_min)))
    )


def where_zones(codes_2d: np.ndarray) -> dict:
    """Index ranges of contiguous same-code zones in a 2-D code raster —
    parity with ``geohash.core.string.where`` (SURVEY.md §2.1 S9).

    Returns ``{code: ((row_min, row_max), (col_min, col_max))}`` — the
    bounding index box of each distinct code's occurrences (upstream's exact
    zone semantics are a MUST-VERIFY; the engine freezes the bounding-box
    interpretation). Vectorized per distinct code.
    """
    codes_2d = np.asarray(codes_2d)
    if codes_2d.ndim != 2:
        raise ValueError("where_zones expects a 2-D code raster")
    if codes_2d.size == 0:
        return {}
    rows, cols = np.indices(codes_2d.shape)
    flat = codes_2d.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_codes = flat[order]
    r = rows.reshape(-1)[order]
    c = cols.reshape(-1)[order]
    # != comparison, not np.diff: code rasters may be string/bytes dtype
    bounds = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    out = {}
    for seg in np.split(np.arange(flat.size), bounds):
        code = sorted_codes[seg[0]]
        out[code.item() if hasattr(code, "item") else code] = (
            (int(r[seg].min()), int(r[seg].max())),
            (int(c[seg].min()), int(c[seg].max())),
        )
    return out


def transform(code, bits_from: int, bits_to: int) -> np.ndarray:
    """Re-encode codes at a coarser precision (S10 / H3 cell_to_parent).

    Finer→coarser only here; coarser→finer (children) explodes rows and lives
    in :mod:`georay.cells`."""
    if bits_to > bits_from:
        raise ValueError("use georay.cells.children for finer precisions")
    code = np.asarray(code, dtype=np.uint64)
    return code >> _U(bits_from - bits_to)


def expand_ranges(counts: np.ndarray, lo: np.ndarray | None = None) -> np.ndarray:
    """Ragged range-expand: the concatenated ranges ``lo[i] + [0, counts[i])``
    (``lo=None``: the offsets ``[0, counts[i])`` alone). The one kernel
    behind :meth:`SortedLookup.match` and every flat-map that explodes a
    row into a run of cells, children or buckets."""
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    local = np.arange(int(counts.sum()), dtype=np.int64) - starts
    return local if lo is None else local + np.repeat(lo, counts)


class SortedLookup:
    """Immutable sorted-key multimap over a pyarrow table: the one sorted
    lookup behind cell joins, ring candidates (each built once per worker
    process by ``runtime.broadcast``) and the polygon cover of
    ``geometry.PolygonSet``. Rows are sorted once by ``key_col`` (stable
    argsort); numpy columns convert on first use."""

    def __init__(self, table: pa.Table, key_col: str):
        keys = table[key_col].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.table = table.take(pa.array(order))
        self._columns: dict[str, np.ndarray] = {}

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` in sorted row order, as numpy."""
        if name not in self._columns:
            self._columns[name] = self.table[name].to_numpy(zero_copy_only=False)
        return self._columns[name]

    def match(self, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(probe_idx, row_idx) pairs for every key match, probe-major —
        vectorized range-expand, no Python row loop."""
        lo = np.searchsorted(self.keys, probe, side="left")
        counts = np.searchsorted(self.keys, probe, side="right") - lo
        if not counts.any():
            return np.empty(0, np.int64), np.empty(0, np.int64)
        probe_idx = np.repeat(np.arange(probe.shape[0]), counts)
        return probe_idx, expand_ranges(counts, lo)

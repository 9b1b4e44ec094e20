"""Point-in-polygon + polygon cell-cover index (SURVEY.md §2.5 N2/N3).

The reference's geometry layer is Boost.Geometry Point/Box predicates
(SURVEY.md §2.3); this module generalizes it to arbitrary rings with a
vectorized numpy ray-cast and a cell-keyed candidate index so PIP against
thousands of tile polygons stays O(points × candidate_polys), not
O(points × all_polys).

Edge semantics: strict-interior crossing test (points exactly on a boundary
are undefined — fixtures and oracle polygons offset edges off the synthetic
coordinate lattice so no test point lies on one). Antimeridian-crossing rings
must be pre-split by the caller into two lon-monotone rings sharing an id.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import codec


def points_in_ring(
    lon: np.ndarray, lat: np.ndarray, ring_lon: np.ndarray, ring_lat: np.ndarray
) -> np.ndarray:
    """Vectorized crossing-number ray cast. ``ring`` need not repeat the
    first vertex; non-convex rings supported. Returns a bool mask."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    rx = np.asarray(ring_lon, dtype=np.float64)
    ry = np.asarray(ring_lat, dtype=np.float64)
    if rx[0] == rx[-1] and ry[0] == ry[-1] and rx.size > 1:
        rx, ry = rx[:-1], ry[:-1]
    inside = np.zeros(lon.shape[0], dtype=bool)
    n = rx.size
    for j in range(n):
        x1, y1 = rx[j], ry[j]
        x2, y2 = rx[(j + 1) % n], ry[(j + 1) % n]
        if y1 == y2:
            continue
        crosses = (y1 > lat) != (y2 > lat)
        with np.errstate(invalid="ignore"):
            xint = (x2 - x1) * (lat - y1) / (y2 - y1) + x1
        inside ^= crosses & (lon < xint)
    return inside


class STRtree:
    """Static STR-packed R-tree over boxes, pure numpy (SURVEY.md §7.4 N3).

    Sort-Tile-Recursive bulk load: boxes sorted by center-x into vertical
    slices, each slice sorted by center-y, packed ``node_cap`` per leaf;
    parents built bottom-up the same way. Batch queries
    (:meth:`query_points`) use a level-synchronous frontier — one vectorized
    bbox test per level for ALL points (10× the per-point walk).

    Measured tradeoff vs the cell-cover index in :class:`PolygonSet`
    (20k small polys / 200k points, and 3k large polys @ bits=16):
    the R-tree BUILDS 10–45× faster (no cover enumeration) but the cell
    index QUERIES 2–4× faster. Use ``backend="rtree"`` when the polygon set
    is rebuilt often (frequent index updates) or cover enumeration would
    blow memory at fine precisions; use the default ``cells`` backend for
    query-heavy streaming PIP.
    """

    def __init__(self, boxes: np.ndarray, node_cap: int = 8):
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.n = boxes.shape[0]
        self.node_cap = node_cap
        if self.n == 0:  # (0+cap-1)//cap == 0 would never reach n_nodes==1
            self.leaf_order = np.empty(0, dtype=np.int64)
            self.sorted_boxes = boxes
            self.levels = []
            return
        order = self._str_order(boxes)
        self.leaf_order = order  # position -> original box index
        self.sorted_boxes = boxes[order]  # leaf-position -> box bbox
        self.levels: list[np.ndarray] = []  # each: (m, 4) node bboxes
        cur = boxes[order]
        while True:
            m = cur.shape[0]
            n_nodes = (m + node_cap - 1) // node_cap
            nodes = np.empty((n_nodes, 4))
            for j in range(n_nodes):
                seg = cur[j * node_cap : (j + 1) * node_cap]
                nodes[j] = (seg[:, 0].min(), seg[:, 1].min(),
                            seg[:, 2].max(), seg[:, 3].max())
            self.levels.append(nodes)
            if n_nodes == 1:
                break
            cur = nodes
        self.levels.reverse()  # root first

    @staticmethod
    def _str_order(boxes: np.ndarray) -> np.ndarray:
        cx = (boxes[:, 0] + boxes[:, 2]) / 2
        cy = (boxes[:, 1] + boxes[:, 3]) / 2
        n = boxes.shape[0]
        n_slices = max(1, int(np.ceil(np.sqrt(n / 8))))
        by_x = np.argsort(cx, kind="stable")
        slice_size = (n + n_slices - 1) // n_slices
        out = []
        for s in range(n_slices):
            sl = by_x[s * slice_size : (s + 1) * slice_size]
            out.append(sl[np.argsort(cy[sl], kind="stable")])
        return np.concatenate(out) if out else np.empty(0, np.int64)

    def query_points(self, lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched containment query: all (point_idx, box_idx) pairs where
        the point lies inside the box.

        Level-synchronous descent: ONE vectorized bbox test per tree level
        for the whole surviving (point, node) frontier, then a vectorized
        range-expand to the children — no per-point Python tree walk."""
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        n = lon.shape[0]
        if self.n == 0 or n == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        pi = np.arange(n, dtype=np.int64)  # frontier point ids
        ni = np.zeros(n, dtype=np.int64)  # frontier node ids (root level)
        for lvl, nodes in enumerate(self.levels):
            b = nodes[ni]
            ok = (
                (b[:, 0] <= lon[pi]) & (b[:, 2] >= lon[pi])
                & (b[:, 1] <= lat[pi]) & (b[:, 3] >= lat[pi])
            )
            pi, ni = pi[ok], ni[ok]
            if pi.size == 0:
                return np.empty(0, np.int64), np.empty(0, np.int64)
            child_count = (
                self.n if lvl == len(self.levels) - 1
                else self.levels[lvl + 1].shape[0]
            )
            lo = ni * self.node_cap
            hi = np.minimum(lo + self.node_cap, child_count)
            counts = hi - lo
            ni = codec.expand_ranges(counts, lo)
            pi = np.repeat(pi, counts)
        # ni now indexes leaf box positions; exact test on the real boxes
        bb = self.sorted_boxes[ni]
        ok = (
            (bb[:, 0] <= lon[pi]) & (bb[:, 2] >= lon[pi])
            & (bb[:, 1] <= lat[pi]) & (bb[:, 3] >= lat[pi])
        )
        return pi[ok], self.leaf_order[ni[ok]].astype(np.int64)

    def query_point(self, lon: float, lat: float) -> np.ndarray:
        """Original indices of boxes containing the point."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        frontier = np.array([0])
        for lvl, nodes in enumerate(self.levels):
            b = nodes[frontier]
            hit = frontier[
                (b[:, 0] <= lon) & (b[:, 2] >= lon)
                & (b[:, 1] <= lat) & (b[:, 3] >= lat)
            ]
            if lvl == len(self.levels) - 1:
                # leaf-level nodes -> expand to box positions, then test
                # the actual boxes (node bboxes are aggregates)
                pos = np.concatenate(
                    [
                        np.arange(j * self.node_cap,
                                  min((j + 1) * self.node_cap, self.n))
                        for j in hit
                    ]
                ).astype(np.int64) if hit.size else np.empty(0, np.int64)
                bb = self.sorted_boxes[pos]
                inside = (
                    (bb[:, 0] <= lon) & (bb[:, 2] >= lon)
                    & (bb[:, 1] <= lat) & (bb[:, 3] >= lat)
                )
                return self.leaf_order[pos[inside]]
            # expand to children at the next level
            nxt = []
            for j in hit:
                lo = j * self.node_cap
                hi = min((j + 1) * self.node_cap, self.levels[lvl + 1].shape[0])
                nxt.append(np.arange(lo, hi))
            frontier = (
                np.concatenate(nxt).astype(np.int64) if nxt else np.empty(0, np.int64)
            )
            if frontier.size == 0:
                return np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.int64)


class PolygonSet:
    """A broadcastable, immutable set of polygons with a cell-cover index.

    Built once on the driver and broadcast to the workers
    (``runtime.broadcast`` — SURVEY.md §2.5 N3's R-tree role): for each
    polygon, the precision-``bits`` cell cover of its bbox maps cell →
    candidate polygon ids, so a point only ray-casts against polygons whose
    cover contains its cell.
    """

    def __init__(self, poly_ids: list, rings: list, bits: int = 12,
                 backend: str = "cells"):
        if len(poly_ids) != len(rings):
            raise ValueError("poly_ids and rings must align")
        self.bits = bits
        self.backend = backend
        self.poly_ids = np.asarray(poly_ids)
        self.rings = [
            (np.asarray(r[0], dtype=np.float64), np.asarray(r[1], dtype=np.float64))
            for r in rings
        ]
        self.bbox = np.array(
            [(rx.min(), ry.min(), rx.max(), ry.max()) for rx, ry in self.rings]
        )
        if backend == "rtree":
            self._tree = STRtree(self.bbox)
            self._cover = None
            return
        # cell -> candidate polygon indices, one row per (cover cell, polygon)
        cover_cells = []
        cover_polys = []
        for i, (rx, ry) in enumerate(self.rings):
            cover = codec.bounding_boxes(
                (rx.min(), ry.min(), rx.max(), ry.max()), bits
            )
            cover_cells.append(cover)
            cover_polys.append(np.full(cover.size, i, dtype=np.int64))
        cc = np.concatenate(cover_cells) if cover_cells else np.empty(0, np.uint64)
        cp = np.concatenate(cover_polys) if cover_polys else np.empty(0, np.int64)
        self._cover = codec.SortedLookup(pa.table({"cell": cc, "poly": cp}), "cell")

    def candidates(self, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point_idx, poly_idx) candidate pairs for points keyed by cell."""
        point_idx, row = self._cover.match(cell)
        return point_idx, self._cover.column("poly")[row]

    def contains(
        self, lon: np.ndarray, lat: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (point_idx, poly_idx) pairs where the point is strictly inside
        the polygon. Vectorized: candidate pruning by cell, bbox filter, then
        one ray-cast per (polygon, its candidate points) subset."""
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        if self.backend == "rtree":
            # batched level-synchronous descent (one vectorized bbox test
            # per level for ALL points — no per-point Python tree walk)
            p_idx, g_idx = self._tree.query_points(lon, lat)
        else:
            cell = codec.encode(lon, lat, self.bits)
            p_idx, g_idx = self.candidates(cell)
        if p_idx.size == 0:
            return p_idx, g_idx
        bb = self.bbox[g_idx]
        ok = (
            (lon[p_idx] >= bb[:, 0])
            & (lon[p_idx] <= bb[:, 2])
            & (lat[p_idx] >= bb[:, 1])
            & (lat[p_idx] <= bb[:, 3])
        )
        p_idx, g_idx = p_idx[ok], g_idx[ok]
        if p_idx.size == 0:
            return p_idx, g_idx
        inside = np.zeros(p_idx.size, dtype=bool)
        order = np.argsort(g_idx, kind="stable")
        gs = g_idx[order]
        bounds = np.flatnonzero(np.diff(gs)) + 1
        for seg in np.split(np.arange(gs.size), bounds):
            g = int(gs[seg[0]])
            rows = order[seg]
            rx, ry = self.rings[g]
            inside[rows] = points_in_ring(lon[p_idx[rows]], lat[p_idx[rows]], rx, ry)
        return p_idx[inside], g_idx[inside]


def make_box_ring(
    lon0: float, lat0: float, width: float, height: float
) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box as a CCW ring (reference Box parity, SURVEY.md §2.3 G2)."""
    rx = np.array([lon0, lon0 + width, lon0 + width, lon0, lon0])
    ry = np.array([lat0, lat0, lat0 + height, lat0 + height, lat0])
    return rx, ry


def split_antimeridian_ring(
    ring_lon: np.ndarray, ring_lat: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split an antimeridian-crossing ring into PIP-safe sub-rings.

    Input contract: the ring uses CONTINUOUS longitudes — a ring crossing
    the antimeridian is expressed with lons beyond ±180 (e.g. 170…195),
    never with a ±360 jump between consecutive vertices. Output: 1 or 2
    rings whose lons all lie in [-180, 180], sharing the caller's id
    (the convention ``PolygonSet`` consumes — SURVEY.md §7 "antimeridian
    edges").

    Implementation: clip the polygon against the lon=180 (or −180) plane
    with Sutherland–Hodgman, shifting the overflow part by ∓360.
    """
    rx = np.asarray(ring_lon, dtype=np.float64)
    ry = np.asarray(ring_lat, dtype=np.float64)
    if np.abs(np.diff(rx)).max(initial=0.0) > 180.0:
        raise ValueError(
            "ring has a >180° lon jump — express antimeridian crossings with "
            "continuous lons beyond ±180 instead"
        )
    if rx.max() <= 180.0 and rx.min() >= -180.0:
        return [(rx, ry)]
    cut = 180.0 if rx.max() > 180.0 else -180.0

    def clip(keep_ge: bool) -> tuple[np.ndarray, np.ndarray]:
        # Sutherland–Hodgman against the vertical line lon == cut
        out_x: list[float] = []
        out_y: list[float] = []
        n = rx.size - 1 if (rx[0] == rx[-1] and ry[0] == ry[-1]) else rx.size
        for j in range(n):
            x1, y1 = rx[j], ry[j]
            x2, y2 = rx[(j + 1) % n], ry[(j + 1) % n]
            in1 = (x1 >= cut) if keep_ge else (x1 <= cut)
            in2 = (x2 >= cut) if keep_ge else (x2 <= cut)
            if in1:
                out_x.append(x1)
                out_y.append(y1)
            if in1 != in2:
                t = (cut - x1) / (x2 - x1)
                out_x.append(cut)
                out_y.append(y1 + t * (y2 - y1))
        return np.array(out_x), np.array(out_y)

    shift = -360.0 if cut == 180.0 else 360.0
    inside_x, inside_y = clip(keep_ge=(cut == -180.0))
    over_x, over_y = clip(keep_ge=(cut == 180.0))
    out = []
    if inside_x.size >= 3:
        out.append((inside_x, inside_y))
    if over_x.size >= 3:
        out.append((over_x + shift, over_y))
    return out


def ring_shoelace(vx: np.ndarray, vy: np.ndarray):
    """Signed shoelace metrics of closed rings on INTEGER coordinates —
    exact (no floats): twice the signed area and the centroid numerators,
    vectorized over a (n_rings, n_vertices) batch.

    Returns ``(area2, cx_num, cy_num)`` int64 arrays where
    area = area2 / 2 and centroid = (cx_num, cy_num) / (3 · area2); the
    caller owns those divisions. Reference analogue: the cell-area surface
    (SURVEY.md §2 S8) generalized to arbitrary vertex rings.
    """
    vx = vx.astype(np.int64)
    vy = vy.astype(np.int64)
    nx_ = np.roll(vx, -1, axis=1)
    ny_ = np.roll(vy, -1, axis=1)
    cross = vx * ny_ - nx_ * vy
    area2 = cross.sum(axis=1)
    cx_num = ((vx + nx_) * cross).sum(axis=1)
    cy_num = ((vy + ny_) * cross).sum(axis=1)
    return area2, cx_num, cy_num

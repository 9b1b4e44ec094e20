"""Point-in-polygon assignment stage (SURVEY.md N3).

The polygon set (with its cell-cover candidate index) is broadcast ONCE
(``runtime.broadcast``); compute runs as stateless tasks that pack with the
other stages of the pipeline (the flagship fuses them with the decode
stage). Each worker process fetches the index once, on its first task, and
keeps it whether georay ships to the workers by reference or by value.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay.geometry import PolygonSet
from georay.runtime import broadcast


def pip_assign(
    points_ds,
    poly_ids,
    rings,
    bits: int = 12,
    keep_cols: list[str] | None = None,
    poly_id_col: str = "poly_id",
    backend: str = "cells",
    anti: bool = False,
):
    """Inner-join points to the polygons strictly containing them.

    ``rings``: list of (lon_array, lat_array) rings aligned with
    ``poly_ids``. Emits one row per (point, containing polygon) pair with the
    requested point columns plus ``poly_id_col``.

    ``anti=True`` is the spatial ANTI join: emits the points contained in NO
    polygon (once each, without ``poly_id_col``) — the "outside every zone"
    filter. Same broadcast index, batch-local complement, still no shuffle.
    """
    polyset_here = broadcast(
        PolygonSet(poly_ids, rings, bits=bits, backend=backend))

    def assign(t: pa.Table) -> pa.Table:
        polyset = polyset_here()
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        p_idx, g_idx = polyset.contains(lon, lat)
        cols_src = t if keep_cols is None else t.select(keep_cols)
        if anti:
            mask = np.ones(t.num_rows, dtype=bool)
            mask[p_idx] = False  # a point in 2+ polygons is listed 2+ times
            return cols_src.filter(pa.array(mask))
        base = cols_src.take(pa.array(p_idx))
        ids = np.asarray(polyset.poly_ids)[g_idx]
        return base.append_column(poly_id_col, pa.array(ids))

    return points_ds.map_batches(assign, batch_format="pyarrow")

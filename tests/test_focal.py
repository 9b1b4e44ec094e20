"""ops.tiles.focal_sum: k-ring focal sums vs a dense-grid numpy oracle."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from georay import codec

BITS = 8  # 16 x 16 grid


def _run(cells: np.ndarray, vals: np.ndarray) -> pd.DataFrame:
    import ray.data

    from georay.ops.tiles import focal_sum

    ds = ray.data.from_arrow(
        pa.table({"cell": pa.array(cells.astype(np.int64)),
                  "n": pa.array(vals.astype(np.int64))})
    )
    out = focal_sum(ds, BITS, cell_col="cell", value_col="n",
                    num_partitions=2).to_pandas()
    return out.sort_values("cell").reset_index(drop=True)


def _oracle(cells: np.ndarray, vals: np.ndarray) -> pd.DataFrame:
    nx = ny = 16
    grid = np.zeros((nx, ny), dtype=np.int64)
    occ = np.zeros((nx, ny), dtype=bool)
    x, y = codec.deinterleave(cells.astype(np.uint64), BITS)
    grid[x, y] = vals
    occ[x, y] = True
    rows = []
    for cx, cy, v in zip(x, y, vals):
        s = cnt = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                wx = (cx + dx) % nx  # antimeridian wrap
                wy = cy + dy
                if 0 <= wy < ny and occ[wx, wy]:  # pole clamp drops off-grid
                    s += int(grid[wx, wy])
                    cnt += 1
        rows.append((int(cells[np.flatnonzero((x == cx) & (y == cy))[0]]),
                     int(v), s, cnt))
    return (
        pd.DataFrame(rows, columns=["cell", "n", "focal_sum", "n_nb"])
        .sort_values("cell").reset_index(drop=True)
    )


def test_focal_sum_random_grid(ray_session):
    rng = np.random.RandomState(11)
    all_cells = np.arange(256, dtype=np.uint64)
    cells = rng.choice(all_cells, size=120, replace=False)
    vals = rng.randint(1, 100, cells.size).astype(np.int64)
    out = _run(cells, vals)
    exp = _oracle(cells, vals)
    pd.testing.assert_frame_equal(out[exp.columns].astype("int64"),
                                  exp.astype("int64"))


def test_focal_sum_wrap_and_poles(ray_session):
    # occupied cells pinned at the antimeridian seam (x=0 vs x=15) and the
    # pole rows (y=0, y=15): wrap must connect the seam, clamp must not
    x = np.array([0, 15, 0, 15], dtype=np.int64)
    y = np.array([0, 0, 15, 15], dtype=np.int64)
    cells = codec.interleave(x, y, BITS)
    vals = np.array([1, 10, 100, 1000], dtype=np.int64)
    out = _run(np.asarray(cells), vals).set_index("cell")
    # (0,0) and (15,0) are wrap-neighbors; pole rows never see the other pole
    c00 = int(codec.interleave(np.array([0]), np.array([0]), BITS)[0])
    c150 = int(codec.interleave(np.array([15]), np.array([0]), BITS)[0])
    assert out.loc[c00, "focal_sum"] == 11 and out.loc[c00, "n_nb"] == 2
    assert out.loc[c150, "focal_sum"] == 11 and out.loc[c150, "n_nb"] == 2
    c015 = int(codec.interleave(np.array([0]), np.array([15]), BITS)[0])
    assert out.loc[c015, "focal_sum"] == 1100 and out.loc[c015, "n_nb"] == 2

"""CellIndex (inverted index X1–X8 parity) tests."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from georay import codec
from georay.index import CellIndex


def _points(n, seed=0):
    rng = np.random.RandomState(seed)
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-90, 90, n)
    cell = codec.encode(lon, lat, 16)
    return pa.table(
        {
            "rec_id": np.arange(n, dtype=np.int64) + seed * 100_000,
            "lon": lon,
            "lat": lat,
            "cell": cell.astype(np.int64),
        }
    )


@pytest.fixture
def read_paths(ray_session):
    """``for path in read_paths():`` runs the loop body once on each side
    of ``query_cells``' read selection: at Ray's default block size, which
    the tests' pruned files fit (``"driver"``: a pyarrow read in the
    driver), then at a 1-byte block size, which no file fits (``"ray"``: a
    Ray Data job). Keep builds out of the loop: 1-byte blocks make their
    shuffle crawl. The block size is restored afterwards."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size

    def paths():
        for path, size in (("driver", saved), ("ray", 1)):
            ctx.target_max_block_size = size
            try:
                yield path
            finally:
                ctx.target_max_block_size = saved

    yield paths
    ctx.target_max_block_size = saved


def _on_path(ds, path):
    """``ds``, after checking that it came from the ``path`` side."""
    from ray.data.dataset import MaterializedDataset

    assert isinstance(ds, MaterializedDataset) == (path == "driver")
    return ds


def test_build_query_cells(ray_session, tmp_path, read_paths):
    import ray

    t = _points(3000)
    idx = CellIndex.build(
        ray.data.from_arrow(t).repartition(4), str(tmp_path / "ix"), bits=16,
        prefix_bits=6,
    )
    # query a handful of known cells -> exactly their records
    want_cells = np.unique(t["cell"].to_numpy())[:20]
    df = t.to_pandas()
    want = df[df["cell"].isin(want_cells)]
    for path in read_paths():
        out = _on_path(idx.query_cells(want_cells), path).to_pandas()
        assert sorted(out["rec_id"]) == sorted(want["rec_id"])


def test_query_box_matches_filter(ray_session, tmp_path, read_paths):
    import ray

    t = _points(3000, seed=1)
    idx = CellIndex.build(
        ray.data.from_arrow(t).repartition(4), str(tmp_path / "ix2"), bits=16,
        prefix_bits=6,
    )
    box = (-30.0, -20.0, 40.0, 35.0)
    # oracle: records whose CELL is in the box cover (cell-granular semantics,
    # reference X6 parity)
    cover = set(codec.bounding_boxes(box, 16).astype(np.int64).tolist())
    df = t.to_pandas()
    want = df[df["cell"].isin(cover)]
    inside = df[
        (df.lon >= box[0]) & (df.lat >= box[1]) & (df.lon <= box[2]) & (df.lat <= box[3])
    ]
    for path in read_paths():
        out = _on_path(idx.query_box(box), path).to_pandas()
        assert sorted(out["rec_id"]) == sorted(want["rec_id"])
        # every point actually in the box is returned (cover is a superset)
        assert set(inside["rec_id"]) <= set(out["rec_id"])


def test_extend_and_keys(ray_session, tmp_path, read_paths):
    import ray

    t1 = _points(1000, seed=2)
    t2 = _points(500, seed=3)
    root = str(tmp_path / "ix3")
    idx = CellIndex.build(ray.data.from_arrow(t1), root, bits=16, prefix_bits=6)
    idx.extend(ray.data.from_arrow(t2))
    scan = idx.scan().to_pandas()
    assert len(scan) == 1500
    keys = idx.keys()
    all_cells = np.union1d(t1["cell"].to_numpy(), t2["cell"].to_numpy())
    assert keys.tolist() == sorted(all_cells.tolist())
    # query_cells sees records from both the base build and the extension
    c = int(t2["cell"][0].as_py())
    df1, df2 = t1.to_pandas(), t2.to_pandas()
    want = list(df1[df1.cell == c]["rec_id"]) + list(df2[df2.cell == c]["rec_id"])
    for path in read_paths():
        out = _on_path(idx.query_cells(np.array([c])), path).to_pandas()
        assert sorted(out["rec_id"]) == sorted(want)


def test_extend_compact_query_equivalence(ray_session, tmp_path, read_paths):
    import os

    import ray

    t1 = _points(1000, seed=4)
    t2 = _points(500, seed=5)
    root = str(tmp_path / "ix4")
    idx = CellIndex.build(ray.data.from_arrow(t1), root, bits=16, prefix_bits=6)
    idx.extend(ray.data.from_arrow(t2))
    before = sorted(idx.scan().to_pandas()["rec_id"])
    keys_before = idx.keys().tolist()
    n_files_before = sum(len(fs) for _, _, fs in os.walk(root))
    idx.compact()
    assert not [d for d in os.listdir(root) if d.startswith("frag-")]
    assert sorted(idx.scan().to_pandas()["rec_id"]) == before
    assert idx.keys().tolist() == keys_before
    assert sum(len(fs) for _, _, fs in os.walk(root)) < n_files_before
    # query parity after compaction
    c = int(t2["cell"][0].as_py())
    df1, df2 = t1.to_pandas(), t2.to_pandas()
    want = list(df1[df1.cell == c]["rec_id"]) + list(df2[df2.cell == c]["rec_id"])
    for path in read_paths():
        out = _on_path(idx.query_cells(np.array([c])), path).to_pandas()
        assert sorted(out["rec_id"]) == sorted(want)
    # compact with no fragments is a no-op
    idx.compact()
    assert sorted(idx.scan().to_pandas()["rec_id"]) == before


def test_query_cells_expand_neighbors(ray_session, tmp_path):
    import ray

    from georay import cells as cells_mod

    t = _points(2000, seed=6)
    idx = CellIndex.build(
        ray.data.from_arrow(t), str(tmp_path / "ix5"), bits=16, prefix_bits=6
    )
    seed_cells = np.unique(t["cell"].to_numpy())[:5].astype(np.uint64)
    out = idx.query_cells(seed_cells, expand_neighbors=True).to_pandas()
    ring, valid = cells_mod.k_ring(seed_cells, 16, 1)
    expanded = np.unique(ring.reshape(-1)[valid.reshape(-1)]).astype(np.int64)
    df = t.to_pandas()
    want = df[df["cell"].isin(expanded)]
    assert sorted(out["rec_id"]) == sorted(want["rec_id"])
    # strictly wider than the unexpanded query on this data
    plain = idx.query_cells(seed_cells).to_pandas()
    assert len(out) >= len(plain)


def test_where_zones():
    raster = np.array([[5, 5, 7], [5, 8, 7], [9, 8, 7]])
    zones = codec.where_zones(raster)
    assert zones[5] == ((0, 1), (0, 1))
    assert zones[7] == ((0, 2), (2, 2))
    assert zones[8] == ((1, 2), (1, 1))
    assert zones[9] == ((2, 2), (0, 0))


def test_where_zones_string_raster():
    raster = np.array([[b"ezs42", b"ezs42"], [b"u4pru", b"ezs42"]], dtype="S5")
    zones = codec.where_zones(raster)
    assert zones[b"ezs42"] == ((0, 1), (0, 1))
    assert zones[b"u4pru"] == ((1, 1), (0, 0))


def test_query_cells_with_explicit_columns(ray_session, tmp_path):
    import ray

    t = _points(500, seed=9)
    idx = CellIndex.build(
        ray.data.from_arrow(t), str(tmp_path / "ixc"), bits=16, prefix_bits=6
    )
    some = np.unique(t["cell"].to_numpy())[:10]
    # caller asks for a narrow column list without _prefix or cell
    out = idx.query_cells(some, columns=["rec_id"]).to_pandas()
    df = t.to_pandas()
    want = df[df["cell"].isin(some)]
    assert sorted(out["rec_id"]) == sorted(want["rec_id"])


def test_small_query_returns_materialized_dataset(ray_session, tmp_path):
    import ray
    from ray.data.dataset import MaterializedDataset

    t = _points(500, seed=10)
    idx = CellIndex.build(
        ray.data.from_arrow(t), str(tmp_path / "ixm"), bits=16, prefix_bits=6
    )
    # a ring-1 lookup prunes to one or two small files: read in the driver
    out = idx.query_cells(t["cell"].to_numpy()[:1], expand_neighbors=True)
    assert isinstance(out, MaterializedDataset)
    assert out.num_blocks() == 1


def test_query_without_matching_rows_keeps_typed_columns(ray_session, tmp_path):
    import ray

    t = _points(500, seed=11)
    idx = CellIndex.build(
        ray.data.from_arrow(t), str(tmp_path / "ixe"), bits=16, prefix_bits=6
    )
    # a cell absent from the data whose prefix partition file exists
    present = np.unique(t["cell"].to_numpy())
    absent = np.setdiff1d(np.arange(present[0], present[0] + 64), present)[:1]
    assert absent.size and absent[0] >> 10 == present[0] >> 10
    df = idx.query_cells(absent, columns=["rec_id"]).to_pandas()
    assert len(df) == 0
    assert df.dtypes.to_dict() == {"rec_id": np.int64, "cell": np.int64}


def test_query_never_returns_prefix_column(ray_session, tmp_path, read_paths):
    import ray

    t = _points(500, seed=12)
    idx = CellIndex.build(
        ray.data.from_arrow(t), str(tmp_path / "ixp"), bits=16, prefix_bits=6
    )
    some = np.unique(t["cell"].to_numpy())[:10]
    for path in read_paths():
        for columns in (["rec_id", "_prefix"], None):
            out = _on_path(idx.query_cells(some, columns=columns), path).to_pandas()
            assert len(out) > 0 and "_prefix" not in out.columns


def test_driver_answer_to_pandas_starts_no_execution(ray_session, tmp_path,
                                                     monkeypatch):
    import ray
    from ray.data import DataContext
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    t = _points(500, seed=13)
    idx = CellIndex.build(
        ray.data.from_arrow(t), str(tmp_path / "ixp"), bits=16, prefix_bits=6
    )
    some = t["cell"].to_numpy()[:3]
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 1  # no file fits: the Ray Data read
    try:
        want = idx.query_cells(some, expand_neighbors=True).to_pandas()
    finally:
        ctx.target_max_block_size = saved
    ds = idx.query_cells(some, expand_neighbors=True)

    def no_execution(*args, **kwargs):
        raise AssertionError("to_pandas started a Ray Data execution")

    monkeypatch.setattr(StreamingExecutor, "execute", no_execution)
    got = ds.to_pandas()
    monkeypatch.undo()
    assert len(got) > 0
    cols = list(want.columns)
    assert list(got.columns) == cols
    pd.testing.assert_frame_equal(
        got.sort_values("rec_id").reset_index(drop=True),
        want.sort_values("rec_id").reset_index(drop=True),
    )

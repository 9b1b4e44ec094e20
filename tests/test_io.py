"""Source/sink facade round-trips (SURVEY.md N9)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay import io as gio


def _table():
    return pa.table(
        {
            "k": np.arange(100, dtype=np.int64),
            "v": (np.arange(100) * 0.5).astype(np.float64),
            "s": [f"row{i}" for i in range(100)],
        }
    )


@pytest.mark.parametrize("fmt", ["parquet", "csv", "json"])
def test_roundtrip_formats(ray_session, tmp_path, fmt):
    import ray

    ds = ray.data.from_arrow(_table()).repartition(4)
    out = str(tmp_path / f"out_{fmt}")
    gio.write_table(ds, out, format=fmt)
    back = gio.read_table(out, format=fmt).to_pandas().sort_values("k")
    assert len(back) == 100
    assert back["k"].tolist() == list(range(100))
    assert back["s"].tolist() == [f"row{i}" for i in range(100)]


def test_format_inference_and_column_pruning(ray_session, tmp_path):
    import ray

    out = str(tmp_path / "pruned")
    gio.write_table(ray.data.from_arrow(_table()), out)  # parquet default
    back = gio.read_table(out, columns=["k"])
    df = back.to_pandas()
    assert list(df.columns) == ["k"] and len(df) == 100
    assert gio.infer_format("x.csv") == "csv"
    assert gio.infer_format("x.jsonl") == "json"
    assert gio.infer_format("dir/of/shards") == "parquet"
    assert gio.infer_format("t.lance") == "lance"


def test_partitioned_sink_resume(ray_session, tmp_path):
    import os

    import ray

    out = str(tmp_path / "parts")
    t = pa.table(
        {"p": np.repeat(np.arange(3), 10).astype(np.int64),
         "v": np.arange(30, dtype=np.int64)}
    )
    man = gio.write_table(
        ray.data.from_arrow(t), out, partition_col="p", lineage="io-test"
    )
    assert set(man["partitions"]) == {"0", "1", "2"}
    files = [f for f in os.listdir(out) if f.endswith(".parquet")]
    assert len(files) == 3
    back = gio.read_table(out).to_pandas()
    assert sorted(back["v"]) == list(range(30))


def test_lance_raises_clearly(ray_session):
    with pytest.raises(ImportError, match="pylance"):
        gio.read_table("/nonexistent/t.lance", format="lance")


# ------------------------------------------------------- footer-sized reads


def _write_points(path, n, seed=0):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    pq.write_table(pa.table({
        "k": np.arange(n, dtype=np.int64) + seed * n,
        "x": rng.random(n),
        "y": rng.random(n),
    }), path)


def _rows(ds):
    return ds.to_pandas().sort_values("k").reset_index(drop=True)


def _unsized(path, columns=None):
    import ray.data

    return ray.data.read_parquet(path, columns=columns)


def test_small_read_is_one_block_fused_with_its_map(ray_session, tmp_path):
    path = str(tmp_path / "pts.parquet")
    _write_points(path, 15_000)

    def shift(t: pa.Table) -> pa.Table:
        return t.set_column(1, "x", pa.compute.add(t["x"], 1.0))

    ds = gio.read_parquet(path).map_batches(shift, batch_format="pyarrow")
    mat = ds.materialize()
    assert mat.num_blocks() == 1
    ops = [ln for ln in mat.stats().splitlines() if ln.startswith("Operator ")]
    assert ops == [], ops  # the map over the driver-read block ran there too
    want = _unsized(path).map_batches(shift, batch_format="pyarrow")
    assert _rows(mat).equals(_rows(want))


@pytest.fixture
def no_ray_task(monkeypatch):
    """Within ``with no_ray_task():`` starting a Ray task or a Ray Data
    execution raises."""
    import contextlib

    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )
    from ray.remote_function import RemoteFunction

    def refuse(*args, **kwargs):
        raise AssertionError("a Ray task or execution started")

    @contextlib.contextmanager
    def guard():
        with monkeypatch.context() as m:
            m.setattr(RemoteFunction, "_remote", refuse)
            m.setattr(StreamingExecutor, "execute", refuse)
            yield

    return guard


def test_one_block_answers_start_no_ray_task(ray_session, tmp_path,
                                             monkeypatch, no_ray_task):
    import ray

    from georay import codec
    from georay import queries as q
    from georay.index import CellIndex

    path = str(tmp_path / "pts.parquet")
    _write_points(path, 15_000)
    rng = np.random.default_rng(1)
    lon, lat = rng.uniform(-180, 180, 500), rng.uniform(-90, 90, 500)
    idx = CellIndex.build(ray.data.from_arrow(pa.table({
        "k": np.arange(500, dtype=np.int64), "lon": lon, "lat": lat,
        "cell": codec.encode(lon, lat, 16).astype(np.int64)})),
        str(tmp_path / "ix"), bits=16, prefix_bits=6)
    plans = (q.q_spatial_join, q.q_knn)
    tables = _point_tables(tmp_path)
    with no_ray_task():
        read = gio.read_parquet(path, ["k", "x"])
        answer = idx.query_cells(codec.encode(lon[:1], lat[:1], 16),
                                 columns=["k"], expand_neighbors=True)
        assert read.num_blocks() == 1 and answer.num_blocks() == 1
        assert len(answer.to_pandas()) > 0
        chain = _chain(gio.read_parquet(path)).to_pandas()
        joined = [plan(tables).to_pandas() for plan in plans]
    assert _rows(read).equals(_rows(_unsized(path, ["k", "x"])))
    assert chain.equals(_chain(_unsized(path)).to_pandas())
    # the same plans with their reads left to Ray, one block each
    monkeypatch.setattr(gio, "read_one_block", lambda files, columns: (None, 1))
    for plan, df in zip(plans, joined):
        ray_path = plan(tables)
        assert not isinstance(ray_path, gio.OneBlock)
        assert len(df) > 0 and df.equals(ray_path.to_pandas())


def _chain(ds):
    """Two maps and a projection, as georay's point plans chain them."""
    def shift(t: pa.Table, by) -> pa.Table:
        return t.set_column(1, "x", pa.compute.add(t["x"], by))

    def norm(batch: dict) -> dict:
        return {"k": batch["k"], "r": np.hypot(batch["x"], batch["y"])}

    return (ds.map_batches(shift, batch_format="pyarrow", fn_args=(1.0,))
            .map_batches(norm, batch_format="numpy", batch_size=4096)
            .select_columns(["r", "k"]))


def _point_tables(d):
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"c_custkey": np.arange(3000, dtype=np.int64)}),
                   str(d / "customer.parquet"))
    pq.write_table(pa.table({"s_suppkey": np.arange(200, dtype=np.int64)}),
                   str(d / "supplier.parquet"))
    return str(d)


FORMATS = ["pyarrow", "pandas", "numpy", "default", None]


def _stage(drop, gen):
    """A UDF for batches of any format: drops the rows whose ``k`` is
    ``drop`` mod 3 and appends ``z = k + add``; as a generator it yields
    that and the untouched batch."""
    def to_cols(batch):
        if isinstance(batch, pa.Table):
            return {c: batch[c].to_numpy(zero_copy_only=False)
                    for c in batch.column_names}
        if isinstance(batch, dict):
            return dict(batch)
        return {c: batch[c].to_numpy() for c in batch.columns}

    def back(cols, like):
        if isinstance(like, pa.Table):
            return pa.table(cols)
        if isinstance(like, dict):
            return cols
        import pandas as pd

        return pd.DataFrame(cols)

    def fn(batch, add=0):
        cols = to_cols(batch)
        keep = cols["k"] % 3 != drop
        out = {c: v[keep] for c, v in cols.items()}
        out["z"] = out["k"] + add
        return back(out, batch)

    if not gen:
        return fn

    def fn_gen(batch, add=0):
        yield fn(batch, add)
        yield batch

    return fn_gen


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_driver_map_matches_ray_map(ray_session, data):
    # the same map chain on an io.one_block table (run in the driver) and
    # on a one-block Dataset that Ray executes: equal frames, row order
    # included, and equal schemas
    import ray

    n = data.draw(st.integers(0, 40), label="rows")
    table = pa.table({
        "k": np.arange(n, dtype=np.int64),
        "x": np.linspace(0.0, 1.0, n),
        "s": [f"r{i}" for i in range(n)],
    })
    stages = []
    for i in range(2):
        fmt = data.draw(st.sampled_from(FORMATS), label=f"format {i}")
        size = data.draw(st.none() | st.integers(1, n + 2), label=f"size {i}")
        udf = _stage(drop=i, gen=data.draw(st.booleans(), label=f"gen {i}"))
        stages.append(dict(fn=udf, batch_format=fmt, batch_size=size,
                           fn_kwargs={"add": data.draw(st.integers(0, 9))}))
    cols = data.draw(st.sampled_from([["z", "k"], ["s"], "x"]), label="cols")
    got, want = gio.one_block(table), ray.data.from_arrow(table)
    for st_args in stages:
        got = got.map_batches(**st_args)
        want = want.map_batches(**st_args)
    got, want = got.select_columns(cols), want.select_columns(cols)
    # a map over rows runs in the driver; over none, on Ray
    first = gio.one_block(table).map_batches(**stages[0])
    assert isinstance(first, gio.OneBlock) == (n > 0)
    assert got.to_pandas().equals(want.to_pandas())
    gs, ws = got.schema(), want.schema()
    assert (gs is None) == (ws is None)
    if gs is not None:
        assert gs.names == ws.names
        # Ray keeps a pandas UDF's answer as a pandas block (strings typed
        # object) until a stage converts it; the driver holds every answer
        # as Arrow, converted as that stage would convert it
        formats = [a["batch_format"] for a in stages]
        if [f for f in formats if f is not None][-1:] != ["pandas"]:
            assert gs.types == ws.types


def test_zero_row_one_block_read_keeps_its_schema(ray_session, tmp_path,
                                                  no_ray_task):
    import pyarrow.parquet as pq

    path = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"k": pa.array([], pa.int64()),
                             "s": pa.array([], pa.string())}), path)
    with no_ray_task():  # the schema is known without running the plan
        ds = gio.read_parquet(path)
        assert ds.schema().names == ["k", "s"]
        assert ds.schema().types == [pa.int64(), pa.string()]
        assert list(ds.to_pandas().columns) == ["k", "s"]
    assert ds.count() == 0 and ds.num_blocks() == 1


def test_read_over_one_block_goes_through_ray(ray_session, tmp_path,
                                              monkeypatch):
    import ray.data
    from ray.data import DataContext

    path = str(tmp_path / "pts.parquet")
    _write_points(path, 15_000)
    calls = []
    read_parquet = ray.data.read_parquet

    def spy(*args, **kwargs):
        calls.append(kwargs.get("override_num_blocks"))
        return read_parquet(*args, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", spy)
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        -(-gio.footer_bytes([path]) // 3))
    ds = gio.read_parquet(path)
    assert calls == [3] and not isinstance(ds, gio.OneBlock)
    assert ds.materialize().num_blocks() == 3
    assert _rows(ds).equals(_rows(_unsized(path)))


def test_driver_answers_are_built_by_io_one_block():
    import ast
    import pathlib

    # a Dataset answered in the driver is io.one_block's, and the index
    # builds none of its own from ray.data.from_arrow; the driver path is
    # io.OneBlock's alone: no other Dataset class, and no other module
    # reads a held table
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(
            node, "id", "")

    root = pathlib.Path(gio.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent).as_posix()
        in_io = rel == "georay/io.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                if (any(name(b).endswith("Dataset") for b in node.bases)
                        and (rel, node.name) != ("georay/io.py", "OneBlock")):
                    sites.append(f"{rel}:{node.lineno} class {node.name}")
            elif isinstance(node, ast.Attribute):
                if node.attr == "_table" and not in_io:
                    sites.append(f"{rel}:{node.lineno} ._table")
            elif isinstance(node, ast.Call) and not in_io:
                f = name(node.func)
                if (f in ("OneBlock", "MaterializedDataset", "ExecutionPlan",
                          "from_arrow_refs")
                        or f == "copy" and any(k.arg == "_as"
                                               for k in node.keywords)
                        or f == "from_arrow" and rel == "georay/index.py"):
                    sites.append(f"{rel}:{node.lineno} {f}")
    assert not sites, f"answer one-block reads with io.one_block: {sites}"


def test_cpus_raise_blocks_down_to_the_min_block_size(ray_session, tmp_path):
    import copy

    import ray
    from ray.data import DataContext

    path = str(tmp_path / "pts.parquet")
    _write_points(path, 15_000)
    cpus = int(ray.cluster_resources()["CPU"])
    prev = DataContext.get_current()
    ctx = copy.deepcopy(prev)
    ctx.target_min_block_size = 1024
    DataContext._set_current(ctx)
    try:
        ds = gio.read_parquet(path, ["k", "x"]).materialize()
    finally:
        DataContext._set_current(prev)
    assert ds.num_blocks() == 2 * cpus
    assert _rows(ds).equals(_rows(_unsized(path, ["k", "x"])))


def test_directory_read_matches_unsized_read(ray_session, tmp_path):
    d = tmp_path / "shards"
    d.mkdir()
    for i in range(3):
        _write_points(str(d / f"part-{i}.parquet"), 2_000, seed=i)
    (d / "_DONE").write_text("marker")
    files = gio.parquet_files(str(d))
    assert [f.rsplit("/", 1)[1] for f in files] == [
        f"part-{i}.parquet" for i in range(3)]
    assert gio.read_num_blocks(gio.footer_bytes(files)) == 1
    ds = gio.read_parquet(str(d), ["k", "y"])
    assert ds.schema().names == ["k", "y"]
    assert _rows(ds).equals(_rows(_unsized(files, ["k", "y"])))
    assert _rows(gio.read_parquet(files)).equals(_rows(_unsized(files)))


def test_footer_bytes_counts_projected_columns(tmp_path):
    import pyarrow.parquet as pq

    path = str(tmp_path / "pts.parquet")
    _write_points(path, 1_000)
    md = pq.read_metadata(path)
    full = sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    assert gio.footer_bytes([path]) == full
    assert 0 < gio.footer_bytes([path], ["k"]) < full


def test_reads_go_through_io_read_parquet():
    import ast
    import pathlib

    root = pathlib.Path(gio.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "io.py" and path.parent == root:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            direct = (isinstance(node, ast.Attribute)
                      and node.attr == "read_parquet"
                      and ast.unparse(node.value) in ("ray.data", "data"))
            imported = (isinstance(node, ast.ImportFrom)
                        and node.module == "ray.data"
                        and any(a.name == "read_parquet" for a in node.names))
            if direct or imported:
                sites.append(f"{path.relative_to(root.parent).as_posix()}:"
                             f"{node.lineno}")
    assert not sites, (
        f"size parquet reads from their footers with io.read_parquet: {sites}"
    )

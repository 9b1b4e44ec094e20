"""Skew salting + checkpointed partitioned writes."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay import runtime


def _skewed_ds(ray, n=5000):
    key = np.where(np.arange(n) % 2 == 0, 7, np.arange(n) % 50)
    return ray.data.from_arrow(
        pa.table({"cell": key.astype(np.int64), "v": np.arange(n, dtype=np.int64)})
    ).repartition(8)


def test_detect_heavy_keys(ray_session):
    import ray

    ds = _skewed_ds(ray)
    hot = runtime.detect_heavy_keys(ds, "cell", threshold=1000)
    assert hot.tolist() == [7]


def test_salting_preserves_counts(ray_session):
    import ray

    ds = _skewed_ds(ray)
    hot = np.array([7])
    salted = runtime.salt_hot_keys(ds, "cell", hot, n_salt=8)
    df = salted.to_pandas()
    # unsalting restores the original key for every row
    assert np.array_equal(df["cell_salted"].to_numpy() // 8, df["cell"].to_numpy())
    # hot key spread across multiple sub-keys, cold keys untouched
    hot_subs = df.loc[df["cell"] == 7, "cell_salted"].nunique()
    assert hot_subs > 1
    cold = df[df["cell"] != 7]
    assert (cold["cell_salted"] == cold["cell"] * 8).all()


def test_write_partitioned_and_resume(ray_session, tmp_path):
    import ray

    out = str(tmp_path / "parts")
    t = pa.table(
        {
            "part": np.repeat(np.arange(4), 25).astype(np.int64),
            "v": np.arange(100, dtype=np.int64),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    man = runtime.write_partitioned(ds, out, "part", lineage="unit-test")
    assert set(man["partitions"]) == {"0", "1", "2", "3"}
    assert sum(p["rows"] for p in man["partitions"].values()) == 100
    files = [f for f in os.listdir(out) if f.endswith(".parquet")]
    assert len(files) == 4

    # resume: delete one partition file (and its sidecar) but keep the
    # manifest entry -> rerun must NOT rewrite it (it is committed)
    part2 = [f for f in os.listdir(out)
             if f.startswith("part-2-") and f.endswith(".parquet")][0]
    os.remove(os.path.join(out, part2))
    os.remove(os.path.join(out, "_done-" + part2[len("part-"):-len(".parquet")] + ".json"))
    man2 = runtime.write_partitioned(ds, out, "part", lineage="unit-test-2")
    assert not any(
        f.startswith("part-2-") and f.endswith(".parquet")
        for f in os.listdir(out)
    )
    assert set(man2["partitions"]) == {"0", "1", "2", "3"}

    # fresh rerun after wiping the manifest AND sidecars rewrites everything
    os.remove(os.path.join(out, "_manifest.json"))
    for f in list(os.listdir(out)):
        if f.startswith("_done-"):
            os.remove(os.path.join(out, f))
    man3 = runtime.write_partitioned(ds, out, "part", lineage="unit-test-3")
    assert any(
        f.startswith("part-2-") and f.endswith(".parquet")
        for f in os.listdir(out)
    )
    assert sum(p["rows"] for p in man3["partitions"].values()) == 100

    # data round-trips
    import pyarrow.parquet as pq

    back = pq.ParquetDataset(
        [os.path.join(out, f) for f in os.listdir(out) if f.endswith(".parquet")]
    ).read()
    assert back.num_rows == 100
    assert sorted(back["v"].to_pylist()) == list(range(100))


def test_write_partitioned_mid_run_crash_resume(ray_session, tmp_path):
    # simulate a crash AFTER two partitions committed (files + sidecars on
    # disk) but BEFORE the final manifest write: the rerun must skip the
    # sidecar-committed partitions and absorb them into the manifest
    import ray

    out = str(tmp_path / "crash")
    t = pa.table(
        {
            "part": np.repeat(np.arange(4), 25).astype(np.int64),
            "v": np.arange(100, dtype=np.int64),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    runtime.write_partitioned(ds, out, "part", lineage="full")
    # forge the crash state: drop the manifest and two of the partitions
    os.remove(os.path.join(out, "_manifest.json"))
    for f in list(os.listdir(out)):
        if f.startswith(("part-0-", "part-1-", "_done-0-", "_done-1-")):
            os.remove(os.path.join(out, f))
    kept = {f for f in os.listdir(out) if f.endswith(".parquet")}
    mtimes = {f: os.path.getmtime(os.path.join(out, f)) for f in kept}
    man = runtime.write_partitioned(ds, out, "part", lineage="rerun")
    # committed partitions 2/3 were not rewritten (mtimes unchanged)
    for f in kept:
        assert os.path.getmtime(os.path.join(out, f)) == mtimes[f]
    # 0/1 were reprocessed; manifest covers all four with full row counts
    assert set(man["partitions"]) == {"0", "1", "2", "3"}
    assert sum(p["rows"] for p in man["partitions"].values()) == 100


def test_salt_overflow_guard(ray_session):
    import pytest
    import ray

    big = pa.table({"cell": np.array([1 << 61], dtype=np.int64)})
    ds = ray.data.from_arrow(big)
    with pytest.raises(Exception, match="salting overflow"):
        runtime.salt_hot_keys(ds, "cell", np.array([1 << 61]), n_salt=8).to_pandas()


# ------------------------------------------------------------- group_agg


def _ds(ray, cols: dict, blocks: int = 4):
    return ray.data.from_arrow(pa.table(cols)).repartition(blocks)


def test_group_agg_multi_and_string_keys(ray_session):
    import ray

    n = 600
    k = np.arange(n) % 5
    s = np.array(["b", "a", "c"])[np.arange(n) % 3]
    v = np.arange(n, dtype=np.int64)
    out = runtime.group_agg(
        _ds(ray, {"k": k, "s": s, "v": v}), ["k", "s"],
        {"n": ("count", None), "sv": ("sum", "v")},
    ).to_pandas()
    want = (
        pd.DataFrame({"k": k, "s": s, "v": v})
        .groupby(["k", "s"], as_index=False)
        .agg(n=("v", "size"), sv=("v", "sum"))
    )
    assert list(out.columns) == ["k", "s", "n", "sv"]
    pd.testing.assert_frame_equal(out, want, check_dtype=False)
    assert out["n"].dtype == np.int64 and out["sv"].dtype == np.int64


def test_group_agg_int64_sum_wraps_like_numpy(ray_session):
    import ray

    v = (1 << 62) + np.arange(6, dtype=np.int64)  # 3 per group: 3·2^62 wraps
    k = np.arange(6) % 2
    out = runtime.group_agg(
        _ds(ray, {"k": k, "v": v}, blocks=3), "k", {"s": ("sum", "v")}
    ).to_pandas()
    with np.errstate(over="ignore"):
        want = [np.add.reduce(v[k == g], dtype=np.int64) for g in (0, 1)]
    assert out["s"].tolist() == want
    assert want[0] < 0  # the sum really wrapped


def test_group_agg_min_max_count_and_distinct(ray_session):
    import ray

    k = np.array([3, 1, 3, 2, 1, 3], dtype=np.int64)
    v = np.array([5, -2, 9, 4, 7, 1], dtype=np.int64)
    f = v.astype(np.float64) / 2
    ds = _ds(ray, {"k": k, "v": v, "f": f}, blocks=3)
    out = runtime.group_agg(
        ds, "k",
        {"n": ("count", None), "mn": ("min", "v"), "mx": ("max", "f")},
    ).to_pandas()
    assert out["k"].tolist() == [1, 2, 3]
    assert out["n"].tolist() == [2, 1, 3]
    assert out["mn"].tolist() == [-2, 4, 1]
    assert out["mx"].tolist() == [3.5, 2.0, 4.5]
    distinct = runtime.group_agg(ds, "k").to_pandas()
    assert list(distinct.columns) == ["k"]
    assert distinct["k"].tolist() == [1, 2, 3]


def test_group_agg_one_block_sorted(ray_session):
    import ray

    rng = np.random.default_rng(3)
    k = rng.integers(0, 500, 5000)
    s = rng.choice(np.array(["x", "y"]), 5000)
    out = runtime.group_agg(
        _ds(ray, {"k": k, "s": s}, blocks=16), ["s", "k"],
        {"n": ("count", None)},
    ).materialize()
    assert out.num_blocks() == 1
    df = out.to_pandas()
    assert df.equals(df.sort_values(["s", "k"]).reset_index(drop=True))
    assert int(df["n"].sum()) == 5000


def test_group_agg_float_sum_raises(ray_session):
    import ray

    ds = _ds(ray, {"k": np.arange(10), "f": np.ones(10)})
    with pytest.raises(TypeError, match="integer"):
        runtime.group_agg(ds, "k", {"s": ("sum", "f")})
    # schema unknown until execution: the partial task raises instead
    mapped = ds.map_batches(lambda t: t, batch_format="pyarrow")
    with pytest.raises(Exception, match="only integer sums"):
        runtime.group_agg(mapped, "k", {"s": ("sum", "f")}).materialize()


def test_group_agg_empty_input(ray_session):
    import ray

    t = pa.table({"k": np.arange(50), "v": np.arange(50)})
    for ds in (
        ray.data.from_arrow(t.slice(0, 0)),
        ray.data.from_arrow(t).repartition(4).filter(expr="k < 0"),
    ):
        out = runtime.group_agg(ds, "k", {"n": ("count", None), "s": ("sum", "v")})
        assert out.count() == 0
        assert len(out.to_pandas()) == 0


def test_group_agg_without_keys_is_one_row(ray_session):
    import ray

    rng = np.random.default_rng(5)
    v = rng.integers(-(2**40), 2**40, 1000)
    f = rng.standard_normal(1000)
    out = runtime.group_agg(
        _ds(ray, {"v": v, "f": f}, blocks=7), [],
        {"n": ("count", None), "s": ("sum", "v"),
         "mn": ("min", "f"), "mx": ("max", "v")},
    ).to_pandas()
    assert list(out.columns) == ["n", "s", "mn", "mx"]
    assert out.to_dict("records") == [
        {"n": 1000, "s": int(v.sum()), "mn": float(f.min()), "mx": int(v.max())}
    ]


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(["a", "b", "c"]),
                  st.integers(-(2**40), 2**40)),
        min_size=1, max_size=60,
    ),
    blocks=st.integers(1, 5),
)
def test_group_agg_matches_pandas(ray_session, rows, blocks):
    import ray

    df = pd.DataFrame(rows, columns=["k", "s", "v"])
    ds = ray.data.from_arrow(
        pa.Table.from_pandas(df, preserve_index=False)
    ).repartition(blocks)
    out = runtime.group_agg(
        ds, ["k", "s"],
        {"n": ("count", None), "sv": ("sum", "v"),
         "mn": ("min", "v"), "mx": ("max", "v")},
    ).to_pandas()
    want = df.groupby(["k", "s"], as_index=False).agg(
        n=("v", "size"), sv=("v", "sum"), mn=("v", "min"), mx=("v", "max")
    )
    pd.testing.assert_frame_equal(out, want, check_dtype=False)


# Files under georay/ allowed to keep ray.data.aggregate:
# {"<file name>": "<one-line measured reason>"}. Every count/sum/min/max
# aggregate there goes through runtime.group_agg.
AGGREGATE_IMPORTS_KEPT: dict[str, str] = {}

# Literal `.repartition(<int>)` calls left under georay/ outside runtime.py;
# lower it as call sites move to group_agg, runtime.join or adaptive
# partition counts.
LITERAL_REPARTITIONS_MAX = 9


def test_ops_use_group_agg_not_ray_aggregates():
    import ast
    import pathlib

    root = pathlib.Path(runtime.__file__).parent
    imports, knobs = [], []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(root.parent).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                mods = []
            if (path.name not in AGGREGATE_IMPORTS_KEPT
                    and any(m.startswith("ray.data.aggregate") for m in mods)):
                imports.append(f"{rel}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                if "combine_partitions" in names:
                    knobs.append(f"{rel}:{node.lineno} {node.name}")
    assert not imports, f"use runtime.group_agg, not ray.data.aggregate: {imports}"
    assert not knobs, f"group_agg has no partition count to choose: {knobs}"


def test_joins_go_through_runtime_join():
    import ast
    import pathlib

    root = pathlib.Path(runtime.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "runtime.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and any(k.arg == "join_type" for k in node.keywords)):
                sites.append(f"{path.relative_to(root.parent).as_posix()}:"
                             f"{node.lineno}")
    assert not sites, (
        f"Dataset.join starts hash-shuffle actors; use runtime.join: {sites}"
    )


def test_worker_state_goes_through_broadcast_and_tasks():
    import ast
    import pathlib

    # every ray.put / ray.get lives in process_state.broadcast, and no
    # map_batches stage asks for an actor pool (a class as its UDF, or a
    # concurrency / compute option)
    root = pathlib.Path(runtime.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(root.parent).as_posix()
        classes = {n.name for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            f = node.func
            if (f.attr in ("put", "get") and isinstance(f.value, ast.Name)
                    and f.value.id == "ray"
                    and path.name != "process_state.py"):
                sites.append(f"{rel}:{node.lineno} ray.{f.attr}")
            if f.attr != "map_batches":
                continue
            sites += [f"{rel}:{node.lineno} map_batches({k.arg}=)"
                      for k in node.keywords
                      if k.arg in ("concurrency", "compute")]
            udf = node.args[0] if node.args else None
            name = (udf.id if isinstance(udf, ast.Name)
                    else udf.attr if isinstance(udf, ast.Attribute) else "")
            if name in classes or name[:1].isupper():
                sites.append(f"{rel}:{node.lineno} map_batches({name})")
    assert not sites, (
        "ship worker state with runtime.broadcast / per_process and run "
        f"stages as tasks: {sites}"
    )


def test_per_key_work_goes_through_runtime_by_key():
    import ast
    import pathlib

    root = pathlib.Path(runtime.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Attribute, ast.Name))):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if name == "map_groups" or (name == "by_bucket"
                                        and path.name != "runtime.py"):
                sites.append(f"{path.relative_to(root.parent).as_posix()}:"
                             f"{node.lineno} {name}")
    assert not sites, f"per-key work goes through runtime.by_key: {sites}"


def test_runtime_imports_nothing_under_ops():
    """``ops/*`` import ``runtime`` at module level, so ``runtime`` must
    not import ``georay.ops`` (that runs ``ops/__init__``) or it cycles."""
    import ast
    import pathlib

    tree = ast.parse(pathlib.Path(runtime.__file__).read_text())
    mods = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    mods += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
             for a in n.names]
    assert not [m for m in mods if m and m.startswith("georay.ops")], mods


def test_literal_repartition_count_does_not_grow():
    import ast
    import pathlib

    root = pathlib.Path(runtime.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "runtime.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "repartition"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, int)):
                sites.append((path.relative_to(root.parent).as_posix(),
                              node.lineno))
    assert len(sites) <= LITERAL_REPARTITIONS_MAX, (
        f"{len(sites)} literal .repartition(<int>) calls "
        f"(max {LITERAL_REPARTITIONS_MAX}): {sorted(sites)}"
    )


# --------------------------------------------------------------- runtime.join


def _sorted(df: pd.DataFrame, cols) -> pd.DataFrame:
    return df[cols].sort_values(cols).reset_index(drop=True)


def _join_frames(seed=0, n_left=600, n_right=200):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame({
        "k": rng.integers(0, 40, n_left),
        "s": rng.choice(["a", "bb", "ccc"], n_left),
        "v": rng.integers(0, 1000, n_left),
    })
    right = pd.DataFrame({
        "k": rng.integers(20, 60, n_right),
        "s": rng.choice(["a", "bb", "dd"], n_right),
        "v": rng.integers(0, 1000, n_right),
    })
    return left, right


def _frame_ds(ray, df, blocks):
    return ray.data.from_arrow(
        runtime.table_from_pandas(df)).repartition(blocks)


@pytest.mark.parametrize("join_type,how", [
    ("inner", "inner"), ("left_outer", "left"),
    ("right_outer", "right"), ("full_outer", "outer"),
])
def test_join_matches_pandas_merge(ray_session, join_type, how):
    import ray

    left, right = _join_frames()
    got = runtime.join(_frame_ds(ray, left, 3), _frame_ds(ray, right, 2),
                       join_type, on=("k", "s"), left_suffix="_l",
                       right_suffix="_r")
    want = left.merge(right, how=how, on=["k", "s"], suffixes=("_l", "_r"))
    cols = ["k", "s", "v_l", "v_r"]
    got = got.to_pandas()
    assert sorted(got.columns) == sorted(cols)
    pd.testing.assert_frame_equal(_sorted(got, cols), _sorted(want, cols),
                                  check_dtype=False)


def test_join_string_key_and_right_on(ray_session):
    import ray

    left, right = _join_frames(seed=1)
    right = right.rename(columns={"s": "rs", "k": "rk"})
    got = runtime.join(_frame_ds(ray, left, 2), _frame_ds(ray, right, 3),
                       "inner", on=("s",), right_on=("rs",),
                       right_suffix="_r", num_partitions=3).to_pandas()
    want = left.merge(right, left_on="s", right_on="rs")
    want = want.rename(columns={"v_x": "v", "v_y": "v_r"})
    cols = ["s", "k", "v", "rk", "v_r"]
    assert "rs" not in got.columns  # keys coalesce, as in Dataset.join
    pd.testing.assert_frame_equal(_sorted(got, cols), _sorted(want, cols),
                                  check_dtype=False)


@pytest.mark.parametrize("num_partitions", [1, 5])
def test_join_never_splits_a_bucket(ray_session, num_partitions):
    import ray
    from ray.data import DataContext

    # 1-byte blocks: every block-size split Ray can make, it makes; a bucket
    # split across two batches would lose its cross-batch matches
    left, right = _join_frames(seed=2, n_left=300, n_right=100)
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 1
    try:
        got = runtime.join(_frame_ds(ray, left, 4), _frame_ds(ray, right, 3),
                           "inner", on=("k",), right_suffix="_r",
                           num_partitions=num_partitions).to_pandas()
    finally:
        ctx.target_max_block_size = saved
    want = left.merge(right, on="k", suffixes=("", "_r"))
    cols = ["k", "s", "v", "s_r", "v_r"]
    pd.testing.assert_frame_equal(_sorted(got, cols), _sorted(want, cols),
                                  check_dtype=False)


def test_join_outputs_one_typed_block_per_bucket(ray_session):
    import ray

    left, right = _join_frames(seed=3)
    out = runtime.join(_frame_ds(ray, left, 3), _frame_ds(ray, right, 2),
                       "inner", on=("k",), right_suffix="_r",
                       num_partitions=4).materialize()
    assert out.num_blocks() == 4
    assert out.schema().names == ["k", "s", "v", "s_r", "v_r"]


def test_join_with_zero_row_side(ray_session):
    import ray

    # Dataset.join raised for every join type here (Acero: no key column
    # in the empty side's schema-less partition). A side with no rows packs
    # nothing, so nothing carries its columns: joins that keep no row of
    # the other side give zero rows, an anti join keeps the other side as
    # it is, and an outer join that needs the empty side's columns raises.
    left, _ = _join_frames(seed=4)
    lds = _frame_ds(ray, left, 2)
    empty = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "w": pa.array([], pa.int64())}))
    for join_type in ("inner", "right_outer", "left_semi"):
        assert runtime.join(lds, empty, join_type, on=("k",)).count() == 0
    anti = runtime.join(lds, empty, "left_anti", on=("k",)).to_pandas()
    pd.testing.assert_frame_equal(_sorted(anti, ["k", "s", "v"]),
                                  _sorted(left, ["k", "s", "v"]))
    with pytest.raises(Exception, match="right side has no rows") as err:
        runtime.join(lds, empty, "left_outer", on=("k",)).materialize()
    # the reason, not a hex dump of the bucket's packed blobs
    assert len(str(err.value)) < 3000, len(str(err.value))


_TWO_LIVE_JOINS = """
import numpy as np
import pandas as pd
import ray

ray.init(address="local", num_cpus=2, _memory=4 << 30,
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
from georay.ops.join import shuffle_cell_join

rng = np.random.default_rng(0)
a = pd.DataFrame({"cell": rng.integers(0, 200, 3000), "x": np.arange(3000)})
b = pd.DataFrame({"cell": np.arange(200), "y": rng.integers(0, 9, 200)})
c = pd.DataFrame({"cell": np.arange(0, 200, 2), "z": np.arange(100)})
ab = shuffle_cell_join(ray.data.from_pandas(a), ray.data.from_pandas(b))
got = shuffle_cell_join(ab, ray.data.from_pandas(c)).to_pandas()
want = a.merge(b, on="cell").merge(c, on="cell")
cols = ["cell", "x", "y", "z"]
pd.testing.assert_frame_equal(
    got[cols].sort_values(cols).reset_index(drop=True),
    want[cols].sort_values(cols).reset_index(drop=True), check_dtype=False)
print("TWO_JOINS_OK", len(got))
ray.shutdown()
"""


def test_two_live_joins_finish_on_a_4gib_node(tmp_path):
    import signal
    import subprocess
    import sys

    # Ray's hash join reserved ~0.94 GB of logical memory per aggregator
    # actor, 4 per join here: two live joins on a 4 GiB node never started.
    # A fresh Ray node in a subprocess, driven from outside the repo.
    script = tmp_path / "two_joins.py"
    script.write_text(_TWO_LIVE_JOINS)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    proc = subprocess.Popen(
        [sys.executable, str(script)], cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("two live joins on a 4 GiB node did not finish in 120 s")
    assert proc.returncode == 0 and "TWO_JOINS_OK" in out, out[-4000:]


_TWO_WIDE_STAGE = """
import json
import os
import time

import pyarrow as pa
import ray
from ray.data import DataContext

ctx = DataContext.get_current()  # a driver that touched the context first
ctx.enable_progress_bars = False
import georay  # noqa: E402
from georay import runtime  # noqa: E402

assert DataContext.get_current() is ctx
print("RESERVATION", ctx.op_resource_reservation_enabled)
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")


def read(t):
    return t


def slow(t):
    t0 = time.time()
    time.sleep(0.2)
    return pa.table({"block": t["block"], "pid": [os.getpid()] * t.num_rows,
                     "t0": [t0] * t.num_rows, "t1": [time.time()] * t.num_rows})


# the flagship's shape: a 0.99-CPU read stage, a 1-CPU map stage fused with
# group_agg's partial, and group_agg's 1-CPU combine behind repartition(1)
n = 12
ds = (ray.data.from_arrow(pa.table({"block": list(range(n))}))
      .repartition(n)
      .map_batches(read, batch_format="pyarrow", batch_size=1, num_cpus=0.99)
      .map_batches(slow, batch_format="pyarrow", batch_size=None))
out = runtime.group_agg(ds, ["block", "pid"],
                        {"t0": ("min", "t0"), "t1": ("max", "t1")}).to_pandas()
assert len(out) == n, out
print("TIMELINE", json.dumps(out[["pid", "t0", "t1"]].values.tolist()))
ray.shutdown()
"""


def test_map_stage_runs_two_wide_beside_read_and_combine(tmp_path):
    import re
    import signal
    import subprocess
    import sys

    # With Ray Data's per-operator reservation on, the read, the map stage
    # and the combine each reserve one task's CPU, upstream first: on a
    # 2-CPU node the map stage ran its 12 blocks in one worker process, one
    # after another. Importing georay turns the reservation off, also in a
    # DataContext the driver fetched before the import.
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = tmp_path / "two_wide.py"
    script.write_text(_TWO_WIDE_STAGE)
    env = dict(os.environ, PYTHONPATH=repo)
    proc = subprocess.Popen(
        [sys.executable, str(script)], cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the two-wide stage driver did not finish in 120 s")
    assert proc.returncode == 0 and "TIMELINE" in out, out[-4000:]
    assert "RESERVATION False" in out, out[-4000:]
    spans = json.loads(re.search(r"TIMELINE (\[.*\])", out).group(1))
    assert len({pid for pid, _, _ in spans}) == 2, spans
    overlapping = any(
        pid_a != pid_b and a0 < b1 and b0 < a1
        for pid_a, a0, a1 in spans for pid_b, b0, b1 in spans
    )
    assert overlapping, spans


def test_only_georay_init_touches_op_reservation():
    import pathlib

    # the reservation setting and its knobs live in georay/__init__ alone
    root = pathlib.Path(runtime.__file__).parent
    hits = [
        f"{path.relative_to(root.parent).as_posix()}:{i}"
        for path in sorted(root.rglob("*.py")) if path != root / "__init__.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "op_resource_reservation" in line
    ]
    assert not hits, f"set Ray Data's reservation only in georay/__init__: {hits}"


_SHIPPING = """
import json
import os
import sys
import uuid

sys.path.insert(0, sys.argv[1])  # as __ray_entry__.py does
import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.cloudpickle as cp

import georay
from georay import codec, hashing, images, jpeg, runtime
from georay.ops import join, knn

mode = "by_value" if georay.shipped_by_value() else "by_reference"
registered = sorted(m for m in cp.list_registry_pickle_by_value()
                    if m.split(".")[0] == "georay")
print("MODE", mode, registered)
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

# the largest map payload of a kNN ring plan, pickled as Ray pickles it
refs = pa.table({"cell": np.arange(50, dtype=np.int64),
                 "lon": np.linspace(0, 1, 50), "lat": np.linspace(0, 1, 50),
                 "ref_id": np.arange(50)})
fns = []
map_batches = ray.data.Dataset.map_batches
ray.data.Dataset.map_batches = (
    lambda ds, fn, *a, **kw: fns.append(fn) or map_batches(ds, fn, *a, **kw))
knn.knn_ring(ray.data.from_arrow(refs), refs, 12, 1)
ray.data.Dataset.map_batches = map_batches
print("PAYLOAD", max(len(cp.dumps(fn)) for fn in fns))

# 16 one-row blocks: one SortedLookup per worker process, not per task
lookup_here = runtime.broadcast(pa.table({"k": [1, 2, 3]}),
                                lambda t: codec.SortedLookup(t, "k"))


def tag(t):
    lookup = lookup_here()
    if not hasattr(lookup, "tag"):
        lookup.tag = uuid.uuid4().hex
    return pa.table({"pid": [os.getpid()], "tag": [lookup.tag]})


tags = ray.data.range(16, override_num_blocks=16).map_batches(
    tag, batch_format="pyarrow", batch_size=None).to_pandas()
assert len(tags) == 16
print("BUILDS", json.dumps(tags.groupby("pid")["tag"].nunique().tolist()))

# a raw value (no build): fetched once per worker process, the same array
# object in every task of that process
arange_here = runtime.broadcast(np.arange(1000))


def fetch(t):
    arr = arange_here()
    assert arr.sum() == 499500
    return pa.table({"pid": [os.getpid()], "obj": [str(id(arr))]})


raw = ray.data.range(16, override_num_blocks=16).map_batches(
    fetch, batch_format="pyarrow", batch_size=None).to_pandas()
assert len(raw) == 16
print("RAW_FETCHES", json.dumps(raw.groupby("pid")["obj"].nunique().tolist()))

# 16 one-row tasks that decode a JPEG: the fused Huffman tables and the
# fingerprint and content-hash powers are built once per worker process
blob = jpeg.encode_jpeg(images.synth_pixels(5))


def decode(t):
    cold = {"jpeg": not jpeg._tables(), "fp": not hashing._fp_pow_cache(),
            "pow": not images._pow_cache()}
    px = jpeg.decode_jpeg(blob)
    hashing.fp_powers(8)
    images.content_hash64(px)
    return pa.table({"pid": [os.getpid()], **{k: [v] for k, v in cold.items()}})


cold = ray.data.range(16, override_num_blocks=16).map_batches(
    decode, batch_format="pyarrow", batch_size=None).to_pandas()
assert len(cold) == 16
print("TABLE_BUILDS", json.dumps(
    cold.groupby("pid")[["jpeg", "fp", "pow"]].sum().values.ravel().tolist()))

rng = np.random.default_rng(0)
left = pd.DataFrame({"cell": rng.integers(0, 40, 500), "x": np.arange(500)})
right = pd.DataFrame({"cell": np.arange(0, 40, 2), "y": np.arange(20)})
want = left.merge(right, on="cell")
cols = ["cell", "x", "y"]


def same(got, want, cols):
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)


lds = ray.data.from_pandas(left).repartition(4)
same(join.broadcast_cell_join(lds, pa.Table.from_pandas(right)).to_pandas(),
     want, cols)
same(runtime.join(lds, ray.data.from_pandas(right), "inner",
                  on=("cell",)).to_pandas(), want, cols)
schema = pa.schema([("cell", pa.int64()), ("n", pa.int64())])
got = runtime.by_key(
    lds, "cell", lambda t: pd.DataFrame(t.to_pandas().groupby("cell").size()
                                        .rename("n").reset_index()),
    schema).to_pandas()
same(got, left.groupby("cell").size().rename("n").reset_index(), ["cell", "n"])
print("PLANS_OK")
ray.shutdown()
"""


@pytest.mark.parametrize("mode", ["by_reference", "by_value"])
def test_georay_ships_to_workers(tmp_path, mode):
    import re
    import signal
    import subprocess
    import sys

    # a driver run from the checkout ships georay by reference: no module
    # of it in cloudpickle's by-value set and small map payloads (this kNN
    # ring map pickles 88 kB by value, 4 kB by reference); one run from
    # elsewhere, with the checkout only on its own sys.path, ships it by
    # value. Both keep one build per worker process (a broadcast lookup,
    # a raw broadcast array and the decode stage's tables) and give the
    # same plan outputs.
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = tmp_path / "shipping.py"
    script.write_text(_SHIPPING)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen(
        [sys.executable, str(script), repo],
        cwd=repo if mode == "by_reference" else str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{mode} driver did not finish in 180 s")
    assert proc.returncode == 0 and "PLANS_OK" in out, out[-4000:]
    registered = "['georay']" if mode == "by_value" else "[]"
    assert f"MODE {mode} {registered}" in out, out[-4000:]
    payload = int(re.search(r"PAYLOAD (\d+)", out).group(1))
    if mode == "by_reference":
        assert payload < 35_000, payload
    builds = json.loads(re.search(r"^BUILDS (\[.*\])", out, re.M).group(1))
    assert set(builds) == {1}, builds  # lookups built per worker process
    raw = json.loads(re.search(r"RAW_FETCHES (\[.*\])", out).group(1))
    assert set(raw) == {1}, raw  # a raw broadcast fetched per process
    tables = json.loads(re.search(r"TABLE_BUILDS (\[.*\])", out).group(1))
    assert set(tables) == {1}, tables  # decode tables built per process


def test_write_partitioned_keeps_column_types(ray_session, tmp_path):
    import glob

    import pyarrow.parquet as pq
    import ray

    t = pa.table({
        "part": pa.array([0, 0, 1, 1, 2, 2], pa.int64()),
        "n": pa.array([1, None, 3, 4, None, 6], pa.int64()),
        "s": pa.array(["a", "b", None, "d", "e", "f"]),
        "u": pa.array([1, 2, 3, 4, 5, 2**32 - 1], pa.uint32()),
    })
    out = str(tmp_path / "typed")
    runtime.write_partitioned(ray.data.from_arrow(t).repartition(2), out,
                              "part")
    files = sorted(glob.glob(os.path.join(out, "part-*.parquet")))
    assert len(files) == 3
    for f in files:
        assert pq.read_schema(f).remove_metadata() == t.schema, f
    back = pa.concat_tables(pq.read_table(f) for f in files)
    assert sorted(back["n"].to_pylist(), key=str) == sorted(
        t["n"].to_pylist(), key=str)


# ------------------------------------------------------------- runtime.by_key


@pytest.mark.parametrize("keys", [["k"], ["s"], ["k", "s"]])
def test_by_key_matches_pandas_groupby_apply(ray_session, keys):
    import ray

    left, _ = _join_frames(seed=5, n_left=3000)
    schema = pa.schema([(k, pa.int64() if k == "k" else pa.string())
                        for k in keys]
                       + [("sum_v", pa.int64()), ("n", pa.int64())])

    def per_key(g: pd.DataFrame) -> pd.Series:
        return pd.Series({"sum_v": g["v"].sum(), "n": len(g)})

    out = runtime.by_key(
        _frame_ds(ray, left, 4), keys,
        lambda t: t.to_pandas().groupby(keys).apply(
            per_key, include_groups=False).reset_index(),
        schema, num_partitions=4).to_pandas()
    want = left.groupby(keys).apply(per_key,
                                    include_groups=False).reset_index()
    cols = list(schema.names)
    pd.testing.assert_frame_equal(_sorted(out, cols), _sorted(want, cols))


def test_by_key_never_splits_a_key(ray_session):
    import ray
    from ray.data import DataContext

    left, _ = _join_frames(seed=6, n_left=2000)
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 1
    try:
        out = runtime.by_key(
            _frame_ds(ray, left, 5), "k",
            lambda t: t.group_by("k", use_threads=False).aggregate(
                [("v", "count")]).rename_columns(["k", "n"]),
            pa.schema([("k", pa.int64()), ("n", pa.int64())]),
            num_partitions=3).to_pandas()
    finally:
        ctx.target_max_block_size = old
    # one output row per key: every key's rows reached one call
    assert out["k"].is_unique
    got = out.set_index("k")["n"].sort_index()
    want = left.groupby("k").size().sort_index()
    assert got.to_dict() == want.to_dict()


def test_by_key_fewer_keys_than_buckets_gives_typed_blocks(ray_session):
    import logging

    import ray

    class Count(logging.Handler):
        n = 0

        def emit(self, record):
            if "different schema" in record.getMessage():
                Count.n += 1

    df = pd.DataFrame({"k": np.arange(3000) % 3, "v": np.arange(3000)})
    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])
    logger = logging.getLogger("ray.data")
    handler = Count()
    logger.addHandler(handler)
    try:
        out = runtime.by_key(
            _frame_ds(ray, df, 5), "k",
            lambda t: pa.table({"k": [t["k"][0].as_py()], "n": [t.num_rows]}),
            schema, num_partitions=8).materialize()
    finally:
        logger.removeHandler(handler)
    assert out.num_blocks() == 8
    blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
              for ref, _ in bundle.blocks]
    assert len(blocks) == 8
    assert all(b.schema == schema for b in blocks)
    assert sum(b.num_rows for b in blocks) == 3
    assert Count.n == 0


def test_by_key_output_must_fit_schema(ray_session):
    import ray

    ds = ray.data.from_arrow(pa.table({"k": [1, 2, 3]}))
    with pytest.raises(Exception, match="int64") as err:
        runtime.by_key(ds, "k", lambda t: pa.table({"x": ["a"]}),
                       pa.schema([("x", pa.int64())])).materialize()
    assert len(str(err.value)) < 3000


def test_by_key_zero_rows_has_no_schema(ray_session):
    import ray

    # map UDFs are skipped on empty blocks, so nothing can type the output
    t = pa.table({"k": np.arange(50), "v": np.arange(50)})
    for ds in (ray.data.from_arrow(t.slice(0, 0)),
               ray.data.from_arrow(t).repartition(4).filter(expr="k < 0")):
        out = runtime.by_key(ds, "k", lambda t: t, t.schema).materialize()
        assert out.count() == 0
        assert out.schema() is None

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


# Aggregate sites under georay/ops/ allowed to keep ray.data.aggregate:
# {"<file name>": "<one-line measured reason>"}. Every count/sum/min/max
# aggregate there goes through runtime.group_agg.
AGGREGATE_IMPORTS_KEPT: dict[str, str] = {}


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
            if (path.parent.name == "ops"
                    and path.name not in AGGREGATE_IMPORTS_KEPT
                    and any(m.startswith("ray.data.aggregate") for m in mods)):
                imports.append(f"{rel}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                if "combine_partitions" in names:
                    knobs.append(f"{rel}:{node.lineno} {node.name}")
    assert not imports, f"use runtime.group_agg, not ray.data.aggregate: {imports}"
    assert not knobs, f"group_agg has no partition count to choose: {knobs}"

"""The two benchmark workloads, as seeded streams of checked operations.

- ``images_flagship``: ``queries.flagship`` over the first 10k fixture
  images (read -> decode_invariant -> pip_assign -> count_by). Map-bound:
  image decode and point-in-polygon kernels do the work, nothing large is
  shuffled, and no point join or index is touched.
- ``points``: point tables only, no image decode. The broadcast plans run
  beside their shuffle twins on the same inputs (spatial_join /
  spatial_join_shuffle, knn_ring1 / knn_shuffle) plus tile_counts, so the
  cell codec, the join and kNN operators and Ray's exchange do the work;
  ``CellIndex.build`` over the 600k lineitem points and neighbour-expanded
  lookups and 10x10 degree box queries on it exercise
  ``runtime.write_partitioned`` and partition-pruned reads.

Every operation returns a pandas frame that is compared with a reference
computed before timing starts.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import pandas as pd

from georay import codec, runtime
from georay import queries as q
from georay.index import CellIndex
from georay.io import clean_parquet_schema
from perfbench import inputs as inp

WORKLOADS = ("images_flagship", "points")

# calls of each kind in one batch of the points stream (about 35 s here),
# after the one build that opens it: 100 lookups leave about 10 beyond p90
POINTS_BATCH = {
    "spatial_join": 8, "knn_ring1": 5, "spatial_join_shuffle": 1,
    "knn_shuffle": 1, "tile_counts": 2, "lookup": 100, "box": 8,
}
# the call mix the gated mix_s is the time of, at a run's per-kind medians:
# each kind took about an eighth of it (4.5-6.5 s) when the benchmark was
# written, so a slowdown in any one kind moves mix_s about as much as in
# any other
MIX = {
    "images_flagship": {"flagship": 1},
    "points": {
        "spatial_join": 25, "knn_ring1": 13, "spatial_join_shuffle": 1,
        "knn_shuffle": 1, "tile_counts": 3, "build": 2, "lookup": 34, "box": 32,
    },
}


@dataclass
class Op:
    """One timed call: ``run`` returns the result frame, ``expected`` is the
    reference it must equal."""

    kind: str
    run: Callable[[], pd.DataFrame]
    expected: Callable[[], pd.DataFrame]


def _frame(ds, columns: list[str]) -> pd.DataFrame:
    df = None if ds is None else ds.to_pandas()
    # no partition matched (None), or Ray's to_pandas of zero rows, which
    # carries no columns: both are the empty answer
    if df is None or (df.empty and not set(columns) <= set(df.columns)):
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in columns})
    return df[columns]


def _flagship_op(tables: str, n_images: int, expected: pd.DataFrame) -> Op:
    def run() -> pd.DataFrame:
        df = q.flagship(tables, n_images=n_images).to_pandas()
        return df.rename(columns={"n": "n_points"})

    return Op("flagship", run, lambda: expected)


POINT_PLANS = {
    "spatial_join": (q.q_spatial_join, "spatial_join"),
    "knn_ring1": (q.q_knn, "knn"),
    "spatial_join_shuffle": (q.q_spatial_join_shuffle, "spatial_join"),
    "knn_shuffle": (q.q_knn_shuffle, "knn"),
    "tile_counts": (q.q_tile_counts, "tile_counts"),
}


def _plan_op(name: str, tables: str, refs: dict) -> Op:
    fn, ref = POINT_PLANS[name]
    return Op(name, lambda: fn(tables).to_pandas(), lambda: refs[ref])


class Workload:
    """``warm_ops`` run in the set-up; ``ops`` is the measured stream, in
    which every operation kind of ``kinds`` appears."""

    def __init__(self, name: str, data: inp.Inputs, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.data = data
        self.rng = np.random.default_rng(seed)
        getattr(self, f"_prepare_{name}")()

    # ---------------------------------------------------- images_flagship

    def _prepare_images_flagship(self) -> None:
        d = self.data
        ref = inp.sql_references(d.tables, ["images_pip"], inp.N_IMAGES)["images_pip"]
        warm_ref = inp.sql_references(
            d.warm_tables, ["images_pip"], inp.N_WARM_IMAGES)["images_pip"]
        self.warm_ops = [_flagship_op(d.warm_tables, inp.N_WARM_IMAGES, warm_ref)]
        self._op = _flagship_op(d.tables, inp.N_IMAGES, ref)
        self.kinds = {"flagship"}

    def _ops_images_flagship(self) -> Iterator[Op]:
        while True:
            yield self._op

    # -------------------------------------------------------------- points

    def _prepare_points(self) -> None:
        d = self.data
        names = ["spatial_join", "knn", "tile_counts"]
        self.refs = inp.sql_references(d.tables, names)
        warm_refs = inp.sql_references(d.warm_tables, names)
        self.oracle = inp.PointOracle(os.path.join(d.tables, "lineitem.parquet"))
        warm_oracle = inp.PointOracle(os.path.join(d.warm_tables, "lineitem.parquet"))
        self.kinds = {*POINT_PLANS, "build", "lookup", "box"}
        # the shuffle twins start join actors on every call, so warming them
        # buys nothing; the broadcast plans and a small index warm the workers
        self.warm_ops = [
            *(_plan_op(n, d.warm_tables, warm_refs)
              for n in ("spatial_join", "knn_ring1", "tile_counts")),
            self._build_op(d.warm_tables, d.warm_index, warm_oracle),
            self._lookup_op(d.warm_index, warm_oracle),
            self._box_op(d.warm_index, warm_oracle),
        ]

    def _build_op(self, tables: str, root: str, oracle: inp.PointOracle) -> Op:
        import ray.data

        shift = inp.INDEX_BITS - inp.INDEX_PREFIX_BITS

        def run() -> pd.DataFrame:
            shutil.rmtree(root, ignore_errors=True)
            # the key columns only, read the way georay's plans read them
            path = os.path.join(tables, "lineitem.parquet")
            cols = ["l_orderkey", "l_linenumber"]
            ds = ray.data.read_parquet(path, columns=cols,
                                       schema=clean_parquet_schema(path, cols))
            ds = ds.map_batches(inp.lineitem_points, batch_format="pyarrow")
            CellIndex.build(ds, root, bits=inp.INDEX_BITS,
                            prefix_bits=inp.INDEX_PREFIX_BITS, resume=False)
            parts = runtime.load_manifest(root)["partitions"]
            return pd.DataFrame({
                "partition": list(parts),
                "rows": np.array([p["rows"] for p in parts.values()], np.int64),
            })

        return Op("build", run, lambda: oracle.partition_rows(shift))

    def _lookup_op(self, root: str, oracle: inp.PointOracle) -> Op:
        # half the lookups at cells that hold records, half uniform on the globe
        if self.rng.random() < 0.5:
            i = int(self.rng.integers(oracle.key.size))
            lon, lat = float(oracle.lon[i]), float(oracle.lat[i])
        else:
            lon = float(self.rng.uniform(-180.0, 180.0))
            lat = float(self.rng.uniform(-90.0, 90.0))

        def run() -> pd.DataFrame:
            cell = codec.encode(np.array([lon]), np.array([lat]), inp.INDEX_BITS)
            ds = CellIndex(root).query_cells(cell, columns=["key"], expand_neighbors=True)
            return _frame(ds, ["key"])

        return Op("lookup", run, lambda: oracle.ring1(lon, lat))

    def lookup(self) -> Op:
        """One more seeded lookup on the measured index."""
        return self._lookup_op(self.data.index, self.oracle)

    def _box_op(self, root: str, oracle: inp.PointOracle) -> Op:
        lon0 = float(self.rng.uniform(-180.0, 170.0))
        lat0 = float(self.rng.uniform(-90.0, 80.0))
        box = (lon0, lat0, lon0 + 10.0, lat0 + 10.0)

        def run() -> pd.DataFrame:
            return _frame(CellIndex(root).query_box(box, columns=["key"]), ["key"])

        return Op("box", run, lambda: oracle.box(box))

    def _ops_points(self) -> Iterator[Op]:
        d = self.data
        yield self._build_op(d.tables, d.index, self.oracle)
        batch = [k for k, n in POINTS_BATCH.items() for _ in range(n)]
        # one call of each kind first, so every kind has a sample before the
        # window can end; then batches of POINTS_BATCH's calls. Both in a
        # seeded order, so index queries fall between the plans (which also
        # lets a plan's workers settle before the next)
        first = list(POINTS_BATCH)
        rest = list(batch)
        for kind in first:
            rest.remove(kind)
        order = [first[i] for i in self.rng.permutation(len(first))]
        order += [rest[i] for i in self.rng.permutation(len(rest))]
        while True:
            for kind in order:
                if kind == "lookup":
                    yield self._lookup_op(d.index, self.oracle)
                elif kind == "box":
                    yield self._box_op(d.index, self.oracle)
                else:
                    yield _plan_op(kind, d.tables, self.refs)
            order = [batch[i] for i in self.rng.permutation(len(batch))]

    def ops(self) -> Iterator[Op]:
        return getattr(self, f"_ops_{self.name}")()

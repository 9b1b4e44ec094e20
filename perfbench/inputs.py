"""Fixed benchmark inputs, generated inside the checkout, and the reference
results every timed operation is checked against.

The customer, supplier and lineitem tables are the sf0.1 harness testdata
(15k customers, 1k suppliers, 600k lineitems), regenerated value for value
from the harness's seed; the warm-up tables are its sf0.001 tables. The
image table is the fixture's first 10k rows. All are generated once per
checkout; ``--seed`` never changes them, it only picks lookup keys, boxes
and query order.
"""

from __future__ import annotations

import json
import os
import shutil

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from georay import codec, fixtures
from georay import queries as q
from georay.ops import spatial

DATA_VERSION = 2
# the harness testdata (a TPC-H-like star schema, uniform random keys) is
# drawn from this seed; see _write_tables
TABLE_SEED = 42

SF = 0.1
N_CUSTOMERS = 15_000
N_SUPPLIERS = 1_000
N_LINEITEMS = 600_000
# one flagship pass over the 100k-image sf0.1 table takes ~53 s at 2 logical
# CPUs here; the first 10k rows keep a pass near 4.5 s
N_IMAGES = 10_000
# warm-up inputs: the sf0.001 tables and a 1k-image table
WARM_SF = 0.001
N_WARM_IMAGES = 1_000

INDEX_BITS = 20
INDEX_PREFIX_BITS = 8

_SEGMENTS = np.array(["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"])


def _write_tables(out_dir: str, sf: float) -> None:
    """Write the customer, supplier and lineitem tables of the harness
    testdata at scale factor ``sf``, value for value and with the same
    schema: all columns, one row group, pandas metadata (georay strips that
    blob on read, so it is part of what a read costs).

    The harness draws every table from one generator seeded with
    TABLE_SEED, in the order customer, supplier, part, orders, lineitem.
    The benchmark reads no part or orders rows, so it skips their draws:
    bounded integer columns take half a 64-bit word per row and uniform
    columns one word, which makes 2.5 words per part row (name adjective and
    noun, brand, type, size) and 3 per order row (customer, status, total
    price, date, priority)."""
    rng = np.random.default_rng(TABLE_SEED)
    n_c, n_s = round(150_000 * sf), round(10_000 * sf)
    n_p, n_o, n_l = round(200_000 * sf), round(1_500_000 * sf), round(6_000_000 * sf)
    os.makedirs(out_dir, exist_ok=True)

    def acctbal(n: int) -> np.ndarray:
        return np.round(rng.uniform(-999.99, 9999.99, n), 2)

    c_nation = rng.integers(0, 25, n_c).astype(np.int32)
    customer = pd.DataFrame({
        "c_custkey": np.arange(n_c, dtype=np.int64),
        "c_name": [f"Customer#{i:09d}" for i in range(n_c)],
        "c_nationkey": c_nation,
        "c_acctbal": acctbal(n_c),
        "c_mktsegment": _SEGMENTS[rng.integers(0, 5, n_c)].astype(object),
    })
    s_nation = rng.integers(0, 25, n_s).astype(np.int32)
    supplier = pd.DataFrame({
        "s_suppkey": np.arange(n_s, dtype=np.int64),
        "s_name": [f"Supplier#{i:09d}" for i in range(n_s)],
        "s_nationkey": s_nation,
        "s_acctbal": acctbal(n_s),
    })
    rng.bit_generator.advance(round(2.5 * n_p) + 3 * n_o)
    lineitem = pd.DataFrame({
        "l_orderkey": rng.integers(0, n_o, n_l),
        "l_partkey": rng.integers(0, n_p, n_l),
        "l_suppkey": rng.integers(0, n_s, n_l),
        "l_linenumber": rng.integers(1, 8, n_l).astype(np.int32),
        "l_quantity": rng.integers(1, 51, n_l).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900.0, 105_000.0, n_l), 2),
        "l_discount": np.round(rng.uniform(0.0, 0.1, n_l), 2),
        "l_tax": np.round(rng.uniform(0.0, 0.08, n_l), 2),
        "l_returnflag": np.array(["R", "A", "N"])[rng.integers(0, 3, n_l)].astype(object),
        "l_linestatus": np.array(["O", "F"])[rng.integers(0, 2, n_l)].astype(object),
        "l_shipdate": (np.datetime64("1995-01-02", "s")
                       + rng.integers(0, 2499, n_l).astype("timedelta64[D]")),
    })
    for name, df in (("customer", customer), ("supplier", supplier), ("lineitem", lineitem)):
        df.to_parquet(os.path.join(out_dir, f"{name}.parquet"), index=False,
                      coerce_timestamps="us")


def lineitem_points(t: pa.Table) -> pa.Table:
    """map_batches stage: one index record per lineitem, keyed by the same
    ``l_orderkey * 8 + l_linenumber`` point the tile_counts plan uses."""
    key = (
        t["l_orderkey"].to_numpy(zero_copy_only=False) * 8
        + t["l_linenumber"].to_numpy(zero_copy_only=False)
    )
    lon, lat = spatial.synth_lonlat(key)
    cell = codec.encode(lon, lat, INDEX_BITS).astype(np.int64)
    return pa.table({"key": key, "lon": lon, "lat": lat, "cell": cell})


class Inputs:
    """Paths of the generated inputs under ``<checkout>/.perfbench_data``."""

    def __init__(self, checkout: str):
        root = os.path.join(checkout, ".perfbench_data")
        self.inputs = os.path.join(root, "inputs")
        self.tables = os.path.join(self.inputs, "tables", "sf0.1")
        self.warm_tables = os.path.join(self.inputs, "tables", "warm")
        self.images = os.path.join(self.inputs, "images")
        self.probe_images = os.path.join(self.inputs, "probe_one_file")
        self.index = os.path.join(root, "index")
        self.warm_index = os.path.join(root, "index_warm")
        self.ray_tmp = os.path.join(root, "ray")
        self.out = os.path.join(root, "out")
        self._marker = os.path.join(self.inputs, "_READY")
        # georay.fixtures caches image tables under a fixed system temp dir;
        # the benchmark keeps every file it touches inside its checkout
        fixtures.ensure_images_table_n.__defaults__ = (self.images,)

    def ready(self) -> bool:
        try:
            with open(self._marker) as f:
                return json.load(f)["version"] == DATA_VERSION
        except (OSError, ValueError, KeyError):
            return False

    def generate(self) -> None:
        """Write every input; the image tables need a running Ray."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        _write_tables(self.tables, SF)
        _write_tables(self.warm_tables, WARM_SF)
        fixtures.ensure_images_table_n(N_IMAGES)
        warm_dir = fixtures.ensure_images_table_n(N_WARM_IMAGES)
        os.makedirs(self.probe_images)
        first = sorted(f for f in os.listdir(warm_dir) if f.endswith(".parquet"))[0]
        shutil.copyfile(os.path.join(warm_dir, first), os.path.join(self.probe_images, first))
        with open(self._marker, "w") as f:
            json.dump({"version": DATA_VERSION}, f)


# ------------------------------------------------------------ references


def sql_references(tables: str, names: list[str], n_images: int = N_IMAGES
                   ) -> dict[str, pd.DataFrame]:
    """Reference results from the registry's DuckDB twins."""
    con = duckdb.connect()
    try:
        for t in ("customer", "supplier", "lineitem"):
            path = os.path.join(tables, f"{t}.parquet")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
        sql = {
            "spatial_join": q.SQL_SPATIAL_JOIN,
            "knn": q.SQL_KNN,
            "tile_counts": q.SQL_TILE_COUNTS,
            "images_pip": q.sql_images_pip(n_images),
        }
        return {name: con.execute(sql[name]).fetchdf() for name in names}
    finally:
        con.close()


class PointOracle:
    """Expected index answers by a plain numpy filter of the source points
    on the floor grid, independent of the codec and the index."""

    def __init__(self, lineitem_path: str, bits: int = INDEX_BITS):
        t = pq.read_table(lineitem_path)
        key = (
            t["l_orderkey"].to_numpy().astype(np.int64) * 8
            + t["l_linenumber"].to_numpy().astype(np.int64)
        )
        self.key = key
        self.lon, self.lat = spatial.synth_lonlat(key)
        self.nx, self.ny = codec.split_bits(bits)
        self.x, self.y = self.grid(self.lon, self.lat)

    def grid(self, lon, lat) -> tuple[np.ndarray, np.ndarray]:
        x = np.floor((np.asarray(lon) + 180.0) / 360.0 * (1 << self.nx)).astype(np.int64)
        y = np.floor((np.asarray(lat) + 90.0) / 180.0 * (1 << self.ny)).astype(np.int64)
        return np.clip(x, 0, (1 << self.nx) - 1), np.clip(y, 0, (1 << self.ny) - 1)

    def _frame(self, mask: np.ndarray) -> pd.DataFrame:
        return pd.DataFrame({"key": self.key[mask]})

    def ring1(self, lon: float, lat: float) -> pd.DataFrame:
        """Records within one cell (Chebyshev) of the point's cell;
        longitude wraps, latitude does not."""
        qx, qy = self.grid([lon], [lat])
        dx = (self.x - qx[0]) % (1 << self.nx)
        near_x = (dx <= 1) | (dx == (1 << self.nx) - 1)
        return self._frame(near_x & (np.abs(self.y - qy[0]) <= 1))

    def box(self, box: tuple) -> pd.DataFrame:
        """Records in every cell the closed box touches."""
        xs, ys = self.grid([box[0], box[2]], [box[1], box[3]])
        mask = (self.x >= xs[0]) & (self.x <= xs[1]) & (self.y >= ys[0]) & (self.y <= ys[1])
        return self._frame(mask)

    def partition_rows(self, shift: int) -> pd.DataFrame:
        """Rows per index partition file (cell prefix)."""
        cell = codec.encode(self.lon, self.lat, self.nx + self.ny)
        prefix, rows = np.unique((cell >> np.uint64(shift)).astype(np.int64), return_counts=True)
        return pd.DataFrame({"partition": prefix.astype(str), "rows": rows.astype(np.int64)})

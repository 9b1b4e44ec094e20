"""Local replica of the driver's correctness gate.

Runs every ``queries()[name](sf_dir)`` pipeline AND its ``oracle_sql()[name]``
via DuckDB on the same parquet tables, then compares row count, schema
(column names sorted), and an order-insensitive value comparison (rows sorted
by all columns). Exact equality required — floats included, since every
oracle-paired query is engineered for bit-exact float determinism.

A query whose run logged Ray Data "different schema" warnings (a stage
emitted blocks of mixed schemas, e.g. an untyped empty block) carries their
count on its line; the last line gives the run's total. The first line
says whether georay shipped to the workers by reference (run from the
checkout) or by value (run from any other directory), and whether Ray
Data's per-operator resource reservation was on (georay turns it off when
imported).

Usage: python tools/check_oracle.py [sf_dir] [name ...]

Starts a local 8-CPU Ray node, or connects to the cluster that Ray's
``RAY_ADDRESS`` names (``RAY_ADDRESS=auto`` after ``ray start --head
--num-cpus 2`` checks at 2 CPUs).
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

from perfbench.host import SchemaWarningCounter

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)
    return df


def compare(name: str, engine: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    problems = []
    if len(engine) != len(oracle):
        problems.append(f"rowcount {len(engine)} != {len(oracle)}")
    ec, oc = sorted(engine.columns), sorted(oracle.columns)
    if ec != oc:
        problems.append(f"columns {ec} != {oc}")
        return problems
    e, o = canon(engine), canon(oracle)
    for col in e.columns:
        if str(e[col].dtype) != str(o[col].dtype):
            problems.append(f"dtype[{col}] {e[col].dtype} != {o[col].dtype}")
    if len(e) == len(o):
        for col in e.columns:
            ev, ov = e[col].to_numpy(), o[col].to_numpy()
            if ev.dtype.kind == "f":
                bad = ~((ev == ov) | (np.isnan(ev) & np.isnan(ov)))
            else:
                bad = ev != ov
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                problems.append(
                    f"values[{col}]: {int(bad.sum())} mismatches, first at row {i}: "
                    f"{ev[i]!r} != {ov[i]!r}"
                )
    return problems


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        # Ray's own RAY_ADDRESS picks a running cluster (any CPU count);
        # otherwise start a local 8-CPU node
        node = ({} if os.environ.get("RAY_ADDRESS")
                else {"address": "local", "num_cpus": 8})
        ray.init(**node, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import georay
    from georay import fixtures
    from georay import queries as q

    mode = "by value" if georay.shipped_by_value() else "by reference"
    reserve = "on" if DataContext.get_current().op_resource_reservation_enabled else "off"
    print(f"{sf_dir}: georay ships to Ray workers {mode} (cwd {os.getcwd()}); "
          f"Ray Data per-operator reservation {reserve}")

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    # image-table oracles are parameterized by the table size at this scale
    # (the driver's own harness runs registry() defaults at sf0.01)
    reg = q.registry(n_images=fixtures.n_images_for(sf_dir))
    qs = {name: fn for name, (fn, _sql) in reg.items()}
    oracles = {name: sql for name, (_fn, sql) in reg.items() if sql is not None}
    failures = 0
    with SchemaWarningCounter() as warned:
        for name, fn in qs.items():
            if only and name not in only:
                continue
            t0 = time.time()
            before = warned.count
            try:
                engine = to_pandas(fn(sf_dir))
            except Exception as exc:  # noqa: BLE001
                print(f"FAIL {name}: engine raised {type(exc).__name__}: {exc}")
                failures += 1
                continue
            dt = time.time() - t0
            n_warn = warned.count - before
            note = f" [{n_warn} different-schema]" if n_warn else ""
            if name not in oracles:
                print(f"ok   {name}: rows-only, {len(engine)} rows ({dt:.1f}s){note}")
                continue
            oracle = con.execute(oracles[name]).fetchdf()
            problems = compare(name, engine, oracle)
            if problems:
                failures += 1
                print(f"FAIL {name} ({dt:.1f}s){note}: " + "; ".join(problems))
            else:
                print(f"ok   {name}: {len(engine)} rows match oracle ({dt:.1f}s){note}")
    ray.shutdown()
    print(f"different-schema warnings: {warned.count}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

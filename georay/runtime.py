"""Partitioning, skew handling, and resumable checkpointed output
(SURVEY.md §4, §7.7 — the explicit-design scale concerns).

- Grouped aggregates: ``group_agg`` is the one count/sum/min/max/distinct
  aggregate — per-batch pyarrow partials, one combine task.
- Heavy-hitter detection: a ``group_agg`` count pre-pass finds keys whose
  row count exceeds a threshold.
- Salting: hot keys split into ``key*S + salt`` sub-keys so one dense urban
  cell no longer serializes into a single reducer; callers unsalt
  (``key // S``) after the per-group work so output row counts stay exact.
- Checkpointed writes: one parquet file per partition key, written to a temp
  path and atomically renamed, plus a manifest JSON (row counts + lineage +
  wall time per partition). A rerun skips partitions whose manifest entry is
  committed — that is what "resumable from checkpoint" means for a batch
  pipeline.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa


_STAGE_STATE: dict = {}
_STAGE_STATE_MAX = 32  # distinct broadcast states kept per worker process


def per_process(key: str, factory):
    """Per-worker-process singleton for broadcast-state stages.

    Ray reuses worker processes across tasks, so state built once per
    process amortizes exactly like actor state while tasks pack elastically
    with other stages (no reserved-CPU starvation — see ops/images.py
    docstring for the measured tradeoff). LRU-capped: long-lived sessions
    running many pipelines would otherwise accumulate one lookup table per
    broadcast ref forever."""
    inst = _STAGE_STATE.pop(key, None)
    if inst is None:
        inst = factory()
    _STAGE_STATE[key] = inst  # re-insert -> most-recently-used position
    while len(_STAGE_STATE) > _STAGE_STATE_MAX:
        _STAGE_STATE.pop(next(iter(_STAGE_STATE)))
    return inst


def strip_metadata(t: pa.Table) -> pa.Table:
    """Zero-copy drop of schema metadata (e.g. the ``b'pandas'`` blob that
    parquet files written via pandas carry) — dict-valued metadata makes
    schemas unhashable and defeats Ray's block-schema dedup."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def table_from_pandas(df, schema: "pa.Schema | None" = None) -> pa.Table:
    """``pa.Table.from_pandas`` minus the ``b'pandas'`` schema metadata.

    The metadata holds a dict, which makes the Arrow schema UNHASHABLE —
    Ray's block-schema dedup then falls back to full unification on every
    reduce ("Failed to hash the schemas" warnings). Pass ``schema`` so
    EMPTY partials keep explicit column types (empty object columns
    otherwise degrade to null type, and schema-unstable empty blocks are
    what breaks ``Dataset.to_pandas`` on sparse data)."""
    t = pa.Table.from_pandas(df, schema=schema, preserve_index=False)
    return t.replace_schema_metadata(None)


def adaptive_partitions(cap: int | None = None, floor: int = 4) -> int:
    """``num_partitions ≈ cluster CPUs`` for JoinOperator / groupby call
    sites (BASELINE.md partition forensics: more join partitions than CPUs
    raises per-message syscall density — which this host's kernel-tax
    phases punish 2–8× — while fewer caps the exchange's parallelism; a
    fixed 8 left 24 of 32 cores idle in containment_join's verify).

    ``cap=None`` (default) tracks the CLUSTER's CPU count so exchanges
    keep widening on multi-node deployments — a hard cap would silently
    serialize a 256-node job's shuffles; pass an explicit cap only for
    probes that need a fixed physical plan across parallelism levels.
    Clamped to [floor, cap]; falls back to 8 when Ray isn't initialised
    (the driver inits Ray before importing queries, so that's test-only)."""
    import ray

    cpus = (
        int(ray.cluster_resources().get("CPU", 8))
        if ray.is_initialized() else 8
    )
    return max(floor, cpus if cap is None else min(cap, cpus))


# partial op -> the op that merges its per-batch results
_COMBINE_OP = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _check_sums(schema: pa.Schema, aggs: dict) -> None:
    for op, col in aggs.values():
        if op == "sum" and col in schema.names and not pa.types.is_integer(
            schema.field(col).type
        ):
            raise TypeError(
                f"group_agg: sum over {col!r} of type {schema.field(col).type};"
                " only integer sums are exact — pre-scale the column to int64"
            )


def group_agg(ds, keys, aggs: dict | None = None):
    """Group ``ds`` by ``keys`` and aggregate — the one two-phase aggregate.

    ``aggs`` maps each output column to ``(op, column)``: ``"count"`` counts
    rows (its column is ignored, pass ``None``), ``"sum"`` takes INTEGER
    columns only (floats raise ``TypeError``: pre-scale them, so sums are
    exact and order-independent), ``"min"``/``"max"`` take any orderable
    column. No ``aggs`` gives the distinct keys.

    Each batch is reduced by a pyarrow hash ``group_by`` inside
    ``map_batches`` (it fuses with the caller's row-level map), then ONE
    task combines all partials with the same ``group_by``. One task holding
    every partial row is what makes the combine cheap: on a 2-logical-CPU
    node of a 1-core host, a pyarrow hash combine of 3.2M partial rows took
    0.15 s where ``repartition(8)`` + Ray's sort-aggregate took 37 s. The
    output is exactly one block sorted by ``keys`` (the order Ray's
    range-partitioned sort-aggregate gives), so callers never see the
    schema-less empty blocks that a sort-aggregate with more partitions
    than groups emits. Empty input gives zero rows.

    Output columns: ``keys`` then ``aggs`` in order. Counts are int64;
    integer sums wrap like numpy's."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    aggs = dict(aggs or {})
    for out, (op, _) in aggs.items():
        if op not in _COMBINE_OP:
            raise ValueError(f"group_agg: unknown op {op!r} for {out!r}")
    parts = [f"_p{i}" for i in range(len(aggs))]
    schema = ds.schema(fetch_if_missing=False)
    if schema is not None:  # known without executing: fail fast
        _check_sums(pa.schema(zip(schema.names, schema.types)), aggs)

    def partial(t: pa.Table) -> pa.Table:
        _check_sums(t.schema, aggs)
        spec = [([], "count_all") if op == "count" else (col, op)
                for op, col in aggs.values()]
        g = t.group_by(keys, use_threads=False).aggregate(spec)
        # pyarrow emits the key columns first, then one column per spec
        return pa.Table.from_arrays(g.columns, names=keys + parts)

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(
            [(p, _COMBINE_OP[op]) for p, (op, _) in zip(parts, aggs.values())]
        )
        g = pa.Table.from_arrays(g.columns, names=keys + list(aggs))
        return g.sort_by([(k, "ascending") for k in keys])

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None,
                     zero_copy_batch=True)
    )


def detect_heavy_keys(ds, col: str, threshold: int) -> np.ndarray:
    """Keys with more than ``threshold`` rows, via partial counts (the
    combine sees one row per distinct key per batch, never the data).

    The ``n > threshold`` filter runs inside the pipeline, so the driver
    only ever collects the hot keys themselves — O(hot), not O(distinct).
    Fine-precision cell keys or string keys with 10⁶+ distinct values would
    otherwise materialize the whole distinct-key table driver-side."""
    import pyarrow.compute as pc

    def keep_hot(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["n"], threshold))

    hot = group_agg(ds, col, {"n": ("count", None)}).map_batches(
        keep_hot, batch_format="pyarrow"
    )
    parts = [
        b[col].to_numpy(zero_copy_only=False)
        for b in hot.iter_batches(batch_format="pyarrow")
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def check_saltable(key: np.ndarray, n_salt: int) -> None:
    """Refuse keys whose ``key * n_salt`` would wrap int64: the salted key
    must stay injective or distinct keys silently collide (fine-precision
    cell codes can reach 2^60 — ADVICE r1)."""
    if key.size and int(np.abs(key).max()) >= (1 << 62) // n_salt:
        raise ValueError(
            f"salting overflow: |key| max {int(np.abs(key).max())} * n_salt "
            f"{n_salt} exceeds the int64-safe bound 2^62; coarsen the key or "
            "reduce n_salt"
        )


def salt_hot_keys(ds, col: str, hot_keys: np.ndarray, n_salt: int = 16,
                  salted_col: str | None = None):
    """Add a salted shuffle key: hot rows get ``key*n_salt + (row_hash %
    n_salt)``, cold rows ``key*n_salt``. Group by the salted column, then
    unsalt with ``key // n_salt``. Raises if ``key*n_salt`` could wrap
    int64 (collision-safety guard)."""
    salted_col = salted_col or f"{col}_salted"
    hot = np.sort(np.asarray(hot_keys))

    def fn(t: pa.Table) -> pa.Table:
        key = t[col].to_numpy(zero_copy_only=False)
        check_saltable(key, n_salt)
        is_hot = np.isin(key, hot)
        # cheap deterministic per-row hash for salt assignment
        rid = np.arange(key.shape[0], dtype=np.int64)
        salt = ((key ^ (rid * 0x9E3779B9)) % n_salt).astype(np.int64)
        out = key * n_salt + np.where(is_hot, salt, 0)
        return t.append_column(salted_col, pa.array(out))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def files_to_process(files: list[str], out_dir: str) -> list[str]:
    """Input-side resume: the subset of input files whose output partition is
    NOT yet committed in ``out_dir``'s manifest. Pairs with
    ``write_partitioned(..., partition_col="_src")`` where the reader stamps
    each row with its source-file basename — unlike output-side resume, the
    skipped files are never read, decoded, or shuffled at all."""
    import os as _os

    done = committed_partitions(out_dir)
    return [f for f in files if _os.path.basename(f) not in done]


# ------------------------------------------------------------- checkpointing


def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest.json")


def load_manifest(out_dir: str) -> dict:
    path = _manifest_path(out_dir)
    if not os.path.exists(path):
        return {"partitions": {}}
    with open(path) as f:
        return json.load(f)


def _sidecar_entries(out_dir: str) -> dict:
    """Per-partition ``.done`` sidecar markers written as each partition
    file commits — they make single partitions durable MID-RUN, so a crash
    between the first partition write and the final manifest commit does
    not force a full reprocess."""
    out = {}
    if os.path.isdir(out_dir):
        for f in os.listdir(out_dir):
            # leading underscore: parquet dataset readers skip these files
            if f.startswith("_done-") and f.endswith(".json"):
                try:
                    with open(os.path.join(out_dir, f)) as fh:
                        e = json.load(fh)
                    out[e["partition"]] = e
                except Exception:
                    continue  # truncated marker from a crash: not committed
    return out


def committed_partitions(out_dir: str) -> set:
    """Partitions durable in the manifest OR via a per-partition sidecar."""
    return set(load_manifest(out_dir)["partitions"]) | set(
        _sidecar_entries(out_dir)
    )


def write_partitioned(
    ds,
    out_dir: str,
    partition_col: str,
    resume: bool = True,
    lineage: str | None = None,
    expected_partitions: list | None = None,
    fault_injector=None,
):
    """Write one parquet file per partition key with atomic rename + manifest.

    Each partition commits INDIVIDUALLY the moment its file lands (atomic
    rename + a ``.done`` sidecar marker), then the manifest summarizes the
    run — so resume works across BOTH completed runs and mid-run crashes:
    on resume, partitions committed in the manifest or via sidecars are
    filtered out BEFORE the shuffle. NOTE: upstream compute still re-runs
    when the partition column is only derived late in the pipeline — for
    full input-side skipping, partition by a key derivable at the source
    (as ``CellIndex.build`` does with the cell prefix). Returns the
    manifest dict. The partition column should be coarse (e.g. a cell
    prefix): one file per key.

    ``resume=False`` means "this is a FRESH run": any ``part-*`` files,
    ``_done-*`` sidecars and manifest left by earlier runs are deleted
    before writing, so stale partitions from a prior (possibly crashed) run
    cannot be absorbed as committed output of this one (ADVICE r2 #2).

    ``fault_injector`` is a chaos-test hook: a picklable callable invoked
    with the partition key inside each partition's write task, BEFORE the
    atomic commit. Raising from it simulates a worker dying mid-run —
    partitions already committed keep their sidecars, nothing else does."""
    os.makedirs(out_dir, exist_ok=True)
    if not resume:
        for f in os.listdir(out_dir):
            if (
                (f.startswith("_done-") and f.endswith(".json"))
                or (f.startswith("part-") and f.endswith(".parquet"))
                or f == os.path.basename(_manifest_path(out_dir))
            ):
                os.remove(os.path.join(out_dir, f))
    manifest = load_manifest(out_dir) if resume else {"partitions": {}}
    done = committed_partitions(out_dir) if resume else set()

    if done:

        def drop_done(t: pa.Table) -> pa.Table:
            key = t[partition_col].to_numpy(zero_copy_only=False)
            keep = ~np.isin(key.astype("U"), np.array(sorted(done)))
            return t.filter(pa.array(keep))

        ds = ds.map_batches(drop_done, batch_format="pyarrow")

    import pandas as pd

    def write_group(g: pd.DataFrame) -> pd.DataFrame:
        import hashlib
        import re

        import pyarrow.parquet as pq

        key = str(g[partition_col].iloc[0])
        if fault_injector is not None:
            fault_injector(key)
        # keys may contain path separators (tile ids like "t3/0") — sanitize
        # for the filename, disambiguate with a short key hash; the manifest
        # keeps the raw key
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", key)
        digest = hashlib.sha1(key.encode()).hexdigest()[:8]
        t0 = time.time()
        final = os.path.join(out_dir, f"part-{safe}-{digest}.parquet")
        tmp = final + f".tmp{os.getpid()}"
        pq.write_table(table_from_pandas(g), tmp)  # metadata-free schema
        os.replace(tmp, final)  # atomic commit of the partition file
        # per-partition durability: sidecar marker so a crash before the
        # final manifest write still skips this partition on rerun; the
        # leading underscore keeps it invisible to parquet dataset readers
        marker = os.path.join(out_dir, f"_done-{safe}-{digest}.json")
        mtmp = marker + f".tmp{os.getpid()}"
        with open(mtmp, "w") as fh:
            json.dump(
                {"partition": key, "rows": len(g),
                 "bytes": os.path.getsize(final),
                 "seconds": round(time.time() - t0, 4)}, fh,
            )
        os.replace(mtmp, marker)
        return pd.DataFrame(
            {
                "partition": [key],
                "rows": [len(g)],
                "bytes": [os.path.getsize(final)],
                "seconds": [round(time.time() - t0, 4)],
            }
        )

    stats = ds.groupby(partition_col).map_groups(write_group, batch_format="pandas")
    for row in stats.iter_rows():
        manifest["partitions"][row["partition"]] = {
            "rows": int(row["rows"]),
            "bytes": int(row["bytes"]),
            "seconds": float(row["seconds"]),
            "lineage": lineage,
        }
    # absorb partitions committed via sidecars by earlier (crashed) runs so
    # the manifest stays the single complete record
    for key, e in _sidecar_entries(out_dir).items():
        manifest["partitions"].setdefault(
            key,
            {"rows": int(e.get("rows", 0)), "bytes": int(e.get("bytes", 0)),
             "seconds": float(e.get("seconds", 0.0)), "lineage": lineage},
        )
    if expected_partitions is not None:
        # partitions that produced ZERO rows never reach write_group; commit
        # them too or resumable callers re-process them on every rerun
        for key in expected_partitions:
            manifest["partitions"].setdefault(
                str(key), {"rows": 0, "bytes": 0, "seconds": 0.0, "lineage": lineage}
            )
    manifest["committed_at"] = time.time()
    tmp = _manifest_path(out_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, _manifest_path(out_dir))
    return manifest

"""Partitioning, skew handling, and resumable checkpointed output
(SURVEY.md §4, §7.7 — the explicit-design scale concerns).

- Grouped aggregates: ``group_agg`` is the one count/sum/min/max/distinct
  aggregate — per-batch pyarrow partials, one combine task.
- Equi-joins: ``join`` is the one shuffle join — both sides hash-packed
  into buckets, exchanged by Ray's task-based sort, joined by pyarrow per
  bucket; no actors.
- Per-key work: ``by_key`` is the one per-key operator — the same pack
  and exchange as ``join``, then one call per bucket on every row of each
  key that hashed there.
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
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# module level: worker-executed (foreign-cwd drivers, CLAUDE.md)
from georay.hashing import MIX, fingerprint64, key_hash


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
    """``num_partitions ≈ cluster CPUs`` for join / groupby call sites
    (BASELINE.md partition forensics: more join partitions than CPUs
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
    column. No ``aggs`` gives the distinct keys. Empty ``keys`` aggregates
    the whole dataset into one row.

    Each batch is reduced by a pyarrow hash ``group_by`` inside
    ``map_batches`` (it fuses with the caller's row-level map), then ONE
    task combines all partials with the same ``group_by``. One task holding
    every partial row is what makes the combine cheap: on a 2-logical-CPU
    node of a 1-core host, a pyarrow hash combine of 3.2M partial rows took
    0.15 s where ``repartition(8)`` + Ray's sort-aggregate took 37 s. The
    output of a non-empty input is exactly one block sorted by ``keys``
    (the order Ray's range-partitioned sort-aggregate gives), never the
    schema-less empty blocks that a sort-aggregate with more partitions
    than groups emits. Zero input rows (also with ``keys=[]``) give a
    dataset whose ``schema()`` is None and whose ``to_pandas()`` has no
    columns, as Ray's own ``groupby().aggregate()`` does: map UDFs are
    skipped on empty blocks, so nothing can type the output.

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
        # pyarrow 16 rejects sort_by([])
        return g.sort_by([(k, "ascending") for k in keys]) if keys else g

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None,
                     zero_copy_batch=True)
    )


# Dataset.join's join types -> pyarrow's join verbs (the map Ray's
# JoinOperator uses)
_ARROW_JOIN = {
    "inner": "inner", "left_outer": "left outer",
    "right_outer": "right outer", "full_outer": "full outer",
    "left_semi": "left semi", "right_semi": "right semi",
    "left_anti": "left anti", "right_anti": "right anti",
}


def _column_hash(col) -> np.ndarray:
    """uint64 hash of one join-key column: the same in every process, and
    the same for equal values of any integer width. Nulls never match in
    a join; they hash as 0 / "" so each lands in exactly one bucket."""
    if pa.types.is_dictionary(col.type):
        col = col.cast(col.type.value_type)
    if pa.types.is_date32(col.type) or pa.types.is_time32(col.type):
        col = col.cast(pa.int32())  # no direct cast to int64
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return fingerprint64(
            pc.fill_null(col, "").to_numpy(zero_copy_only=False))
    if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
        return fingerprint64(np.array(  # latin-1: one char per byte
            [b.decode("latin-1") for b in pc.fill_null(col, b"").to_pylist()],
            dtype=object))
    if pa.types.is_floating(col.type):
        v = pc.fill_null(col.cast(pa.float64()), 0.0).to_numpy(
            zero_copy_only=False) + 0.0  # -0.0 + 0.0 is 0.0: equal keys
        return key_hash(v.view(np.int64))
    v = pc.fill_null(pc.cast(col, pa.int64(), safe=False), 0)
    return key_hash(v.to_numpy(zero_copy_only=False))


def _pack(ds, keys, p: int, side: int = 0):
    """``ds`` hash-packed into ``p`` buckets — the shuffle input of
    :func:`join` and :func:`by_key`.

    One ``map_batches`` call per block hashes the ``keys`` columns to a
    bucket in ``[0, p)`` (:func:`_column_hash`, mixed across columns in
    order) and emits exactly ``p`` rows ``(_b, _s, _blob)``: the bucket,
    ``side``, and the Arrow IPC stream of that bucket's rows. Empty slices
    are kept, so every bucket carries the block's schema."""

    def pack(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in keys:  # order-sensitive mix, one pass per key col
                h = h * MIX + _column_hash(t[c])
        b = (h % np.uint64(p)).astype(np.int64)
        order = np.argsort(b, kind="stable")
        cuts = np.searchsorted(b[order], np.arange(p + 1))
        t = strip_metadata(t).take(pa.array(order))
        # the p IPC streams back to back in one buffer; blob i spans
        # ends[i]:ends[i + 1]
        sink, ends = pa.BufferOutputStream(), [0]
        for i in range(p):
            with pa.ipc.new_stream(sink, t.schema) as w:
                w.write_table(t.slice(cuts[i], cuts[i + 1] - cuts[i]))
            ends.append(sink.tell())
        blobs = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), p,
            [None, pa.py_buffer(np.array(ends, dtype=np.int64)),
             sink.getvalue()],
        )
        return pa.table({
            "_b": pa.array(np.arange(p, dtype=np.int64)),
            "_s": pa.array(np.full(p, side, dtype=np.int8)),
            "_blob": blobs,
        })

    return ds.map_batches(pack, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)


def _unpack(blobs) -> list:
    return [pa.ipc.open_stream(b.as_buffer()).read_all() for b in blobs]


def join(left, right, join_type: str, on, right_on=None, left_suffix=None,
         right_suffix=None, num_partitions: int | None = None):
    """Equi-join two Datasets on Ray tasks — the one shuffle join.

    Same arguments, output columns, suffixes and null handling as
    ``Dataset.join`` (each bucket makes the pyarrow ``Table.join`` call
    that Ray's ``JoinOperator`` makes per partition), but no actors: Ray
    2.49 starts hash-shuffle aggregator actors on every call, each
    reserving ~0.94 GB of the node's logical ``memory`` (two live joins
    deadlocked a 15 GB host), and their start-up cost about 2 s per call
    (a 15k × 1k-row join: 2.5 s that way, 0.51 s here, on a 1-core host).

    Plan, ``P = num_partitions`` (``None`` → :func:`adaptive_partitions`):

    - pack: :func:`_pack` per side (``_s`` 0 left, 1 right), so every
      bucket carries both sides' schemas;
    - exchange: :func:`by_bucket` on ``_b`` over the union of both sides
      — a fixed-boundary sort, exactly one block per bucket;
    - join: ``map_batches(batch_size=None)`` decodes one bucket's blobs
      per side and joins them with pyarrow: one typed block per bucket.

    Scale contract: one bucket (both sides' rows) fits a worker — the
    contract of one hash-join partition. A side with no rows at all packs
    nothing (Ray skips map UDFs on empty blocks), so nothing carries its
    columns: joins that output no row of the other side (inner, semi,
    the other side's outer/anti) give zero rows; joins that must keep
    the other side's rows (its outer join, ``full_outer``) raise
    ``ValueError`` when it has rows; an anti join keeps them as they are.
    ``Dataset.join`` raised for every join type there."""
    if join_type not in _ARROW_JOIN:
        raise ValueError(f"join: unknown join_type {join_type!r}; "
                         f"one of {sorted(_ARROW_JOIN)}")
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    if not on or len(on) != len(right_on):
        raise ValueError(f"join: on={on} and right_on={right_on} must be "
                         "non-empty and of equal length")
    p = adaptive_partitions() if num_partitions is None else int(num_partitions)

    def one_sided(present: pa.Table, missing: str) -> pa.Table:
        keep = {"right": ("left_outer", "full_outer", "left_anti"),
                "left": ("right_outer", "full_outer", "right_anti")}[missing]
        if join_type not in keep or present.num_rows == 0:
            return pa.table({})
        if join_type.endswith("_anti"):
            return present
        raise ValueError(
            f"join: the {missing} side has no rows, so a {join_type} join "
            "cannot type its columns"
        )

    def join_bucket(t: pa.Table):
        # a generator: Ray Data runs it outside the UDF wrapper that puts
        # the whole input batch (every blob, in hex) into the error text,
        # so an error here reads as itself
        sides = ([], [])
        for s, blob in zip(t["_s"].to_numpy(), _unpack(t["_blob"])):
            sides[s].append(blob)
        lt, rt = (pa.concat_tables(x, promote_options="default") if x else None
                  for x in sides)
        if rt is None:
            yield one_sided(lt, "right")
        elif lt is None:
            yield one_sided(rt, "left")
        else:
            yield lt.join(rt, keys=on, right_keys=right_on,
                          join_type=_ARROW_JOIN[join_type],
                          left_suffix=left_suffix, right_suffix=right_suffix)

    u = _pack(left, on, p, 0).union(_pack(right, right_on, p, 1))
    return by_bucket(u, "_b", p).map_batches(
        join_bucket, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True)


def by_key(ds, keys, fn, schema, num_partitions: int | None = None):
    """Call ``fn`` on all rows of each ``keys`` value at once — the one
    per-key operator (window and trajectory sweeps, per-key top-k, LSH
    band pairs, pair dedup, partitioned writes).

    The rows are hash-packed into ``P`` buckets with :func:`_pack` (``P``
    = ``num_partitions``, ``None`` → :func:`adaptive_partitions`),
    exchanged with :func:`by_bucket`, and ``fn`` runs once per non-empty
    bucket on one pyarrow table holding every row of each key that hashed
    there — many keys per call, in no particular order (wrap a body that
    needs one key at a time in :func:`per_key`).
    ``fn`` returns a pyarrow table or a pandas DataFrame with (at least)
    ``schema``'s columns; it is cast to ``schema`` with a safe cast, so
    an output that does not fit raises. ``schema`` is a ``pa.Schema`` or
    a function of the input's schema (for outputs that carry the input
    columns through; every bucket sees every block's schema). An empty
    bucket gives ``schema.empty_table()``: a non-empty input gives
    exactly ``P`` typed blocks, never the schema-less empty blocks of a
    sampled ``groupby``.
    Zero input rows give ``schema() is None``, as with :func:`group_agg`:
    map UDFs are skipped on empty blocks, so nothing can type the output.

    Scale contract: one bucket fits a worker, as for :func:`join` — a
    skewed key still lands in one bucket; ``P`` only has to keep the
    average bucket within memory."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    p = adaptive_partitions() if num_partitions is None else int(num_partitions)

    def run(t: pa.Table):
        # a generator, as join's join_bucket: errors from fn read as
        # themselves, not after a hex dump of the bucket's blobs
        rows = pa.concat_tables(_unpack(t["_blob"]), promote_options="default")
        out_schema = schema(rows.schema) if callable(schema) else schema
        if rows.num_rows == 0:
            yield out_schema.empty_table()
            return
        out = fn(rows)
        if isinstance(out, pa.Table):
            yield out.select(out_schema.names).cast(out_schema)
        else:
            yield table_from_pandas(out, out_schema)

    return by_bucket(_pack(ds, keys, p), "_b", p).map_batches(
        run, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def per_key(keys, fn):
    """A ``runtime.by_key`` body that calls ``fn`` once per distinct
    ``keys`` value of its bucket (nulls are one value), in ascending key
    order, and concatenates the outputs — for bodies that read their key
    as ``g[key][0]``."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def body(t: pa.Table):
        t = t.sort_by([(k, "ascending") for k in keys])
        n = t.num_rows
        new = np.zeros(n, dtype=bool)
        new[0] = True  # by_key never calls a body on an empty bucket
        for k in keys:
            a, b = t[k].slice(1), t[k].slice(0, n - 1)
            differ = pc.or_(pc.fill_null(pc.not_equal(a, b), False),
                            pc.not_equal(pc.is_null(a), pc.is_null(b)))
            new[1:] |= differ.to_numpy(zero_copy_only=False)
        cuts = np.append(np.flatnonzero(new), n)
        outs = [fn(t.slice(s, e - s)) for s, e in zip(cuts[:-1], cuts[1:])]
        if isinstance(outs[0], pd.DataFrame):
            return pd.concat(outs, ignore_index=True)
        return pa.concat_tables(outs, promote_options="default")

    return body


def by_bucket(ds, col: str, p: int):
    """``ds`` exchanged so that each block holds exactly the rows of one
    value of the integer column ``col`` in ``[0, p)``: Ray's task-based
    sort with fixed boundaries — no sampling tasks, one partition per
    value, so none of the schema-less empty partitions a sampled
    ``groupby`` makes when it has more partitions than values. ``p = 1``
    uses ``repartition(1)`` (empty boundaries would sample). Read it with
    ``map_batches(..., batch_size=None)``: one batch per bucket."""
    if p > 1:
        return ds.sort(col, boundaries=list(range(1, p)))
    return ds.repartition(1)


def detect_heavy_keys(ds, col: str, threshold: int) -> np.ndarray:
    """Keys with more than ``threshold`` rows, via partial counts (the
    combine sees one row per distinct key per batch, never the data).

    The ``n > threshold`` filter runs inside the pipeline, so the driver
    only ever collects the hot keys themselves — O(hot), not O(distinct).
    Fine-precision cell keys or string keys with 10⁶+ distinct values would
    otherwise materialize the whole distinct-key table driver-side."""

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


_WRITE_STATS = pa.schema([("partition", pa.string()), ("rows", pa.int64()),
                          ("bytes", pa.int64()), ("seconds", pa.float64())])


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

    def write_group(g: pa.Table) -> pa.Table:
        import hashlib
        import re

        import pyarrow.parquet as pq

        key = str(g[partition_col][0].as_py())
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
        # pyarrow end to end: through pandas, a nullable int64 column turns
        # into double in the partitions that hold a null
        pq.write_table(strip_metadata(g), tmp)
        os.replace(tmp, final)  # atomic commit of the partition file
        # per-partition durability: sidecar marker so a crash before the
        # final manifest write still skips this partition on rerun; the
        # leading underscore keeps it invisible to parquet dataset readers
        marker = os.path.join(out_dir, f"_done-{safe}-{digest}.json")
        mtmp = marker + f".tmp{os.getpid()}"
        with open(mtmp, "w") as fh:
            json.dump(
                {"partition": key, "rows": g.num_rows,
                 "bytes": os.path.getsize(final),
                 "seconds": round(time.time() - t0, 4)}, fh,
            )
        os.replace(mtmp, marker)
        return pa.table({
            "partition": [key],
            "rows": [g.num_rows],
            "bytes": [os.path.getsize(final)],
            "seconds": [round(time.time() - t0, 4)],
        })

    stats = by_key(ds, partition_col, per_key(partition_col, write_group),
                   _WRITE_STATS)
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

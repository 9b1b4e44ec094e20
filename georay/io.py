"""Source/sink facade (SURVEY.md §2.5 N9): one entry point per storage
format so pipelines stay format-agnostic.

Reads return a ``ray.data.Dataset`` with schema metadata stripped (pandas
metadata blobs defeat Ray's block-schema dedup — see runtime.strip_metadata)
and column pruning pushed into the reader where the format supports it
(parquet). The Lance path — the BASELINE.json input_hint's native format —
is attempted via import and degrades to a clear error in environments
without ``pylance`` (this sandbox); the parquet facade carries the same
schema, so pipelines are lance-ready without code changes.

A parquet read sized to one block (:func:`read_num_blocks`) is read here,
in the driver, and answered as a :class:`OneBlock` Dataset, and so are the
map stages run over it: ``OneBlock.map_batches`` and ``select_columns``
run on the held table and answer with :func:`one_block`, so a small
read → map → project plan starts no Ray task. Anything else on such a
Dataset, and every Dataset of more blocks, runs on Ray.

Sinks: plain format writers, or the checkpointed partitioned-parquet sink
(``runtime.write_partitioned``) when a partition column is given — one
atomically-renamed file per key + manifest with lineage, the resumable
layout every large output should use.
"""

from __future__ import annotations

import functools
import os
from types import GeneratorType

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import DataContext
from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder
from ray.data._internal.execution.interfaces import RefBundle
from ray.data._internal.logical.interfaces import LogicalOperator, LogicalPlan
from ray.data._internal.logical.operators.from_operators import FromArrow
from ray.data._internal.plan import ExecutionPlan
from ray.data._internal.planner.plan_udf_map_op import _validate_batch_output
from ray.data._internal.stats import DatasetStats
from ray.data.block import (
    BlockAccessor,
    BlockExecStats,
    BlockMetadataWithSchema,
    _apply_batch_format,
)
from ray.data.dataset import MaterializedDataset

from georay import runtime
from georay.process_state import put

_EXT_FORMAT = {
    ".parquet": "parquet", ".pq": "parquet",
    ".csv": "csv", ".json": "json", ".jsonl": "json",
    ".lance": "lance",
}


def infer_format(path: str) -> str:
    base = path.rstrip("/")
    _, ext = os.path.splitext(base)
    fmt = _EXT_FORMAT.get(ext.lower())
    if fmt:
        return fmt
    # directories of parquet shards are the default layout
    return "parquet"


def clean_parquet_schema(path, columns: list[str] | None = None):
    """Projected, metadata-free schema of a parquet file/dir/list — passed
    as ``read_parquet(schema=...)`` so the read operator itself emits
    metadata-free blocks. Stripping with a ``map_batches`` AFTER the read is
    one stage too late: the read operator's own block-schema dedup already
    chokes on the unhashable pandas metadata blob and logs "Failed to hash
    the schemas" per task (VERDICT r2 #5). Returns None when no parquet
    file is found (caller falls back to schema inference)."""
    files = parquet_files(path)
    if not files:
        return None
    return _projected(pq.read_schema(files[0]), columns)


def parquet_files(path_or_files) -> list[str]:
    """The files a parquet read of ``path_or_files`` covers: a list as
    given, a file as itself, a directory's files below it minus the
    hidden ``.``/``_`` ones (Ray's own listing rule)."""
    if isinstance(path_or_files, (list, tuple)):
        return list(path_or_files)
    if not os.path.isdir(path_or_files):
        return [path_or_files]
    out = []
    for root, dirs, names in os.walk(path_or_files):
        dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
        out += [os.path.join(root, n) for n in sorted(names)
                if not n.startswith((".", "_"))]
    return out


def footer_bytes(files: list[str], columns: list[str] | None = None) -> int:
    """Uncompressed bytes of ``columns`` (every column when None) in
    ``files``, summed over their row groups from the parquet footers."""
    return _column_bytes(map(pq.read_metadata, files), columns)


def _column_bytes(footers, columns: list[str] | None) -> int:
    want = None if columns is None else set(columns)
    total = 0
    for md in footers:
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            for j in range(rg.num_columns):
                c = rg.column(j)
                if want is None or c.path_in_schema.split(".")[0] in want:
                    total += c.total_uncompressed_size
    return total


def read_num_blocks(nbytes: int) -> int:
    """Block count for a read of ``nbytes``: enough blocks to keep each
    under ``target_max_block_size``, and 2×CPUs only while blocks stay
    at least ``target_min_block_size``. Ray's own rule lets the CPU term
    override the minimum, so a 146 KB table read as 4 blocks, and a read
    split into more blocks than read tasks never fuses with the maps
    after it."""
    import ray

    ctx = DataContext.get_current()
    by_max = 1
    if ctx.target_max_block_size is not None:
        by_max = -(-nbytes // ctx.target_max_block_size)
    cpus = int(ray.cluster_resources().get("CPU", 1))
    by_cpu = min(2 * cpus, nbytes // ctx.target_min_block_size)
    return max(1, by_max, by_cpu)


def read_one_block(files: list[str], columns: list[str] | None = None
                   ) -> tuple[pa.Table | None, int]:
    """``(table, 1)`` when :func:`read_num_blocks` sizes the read of
    ``columns`` from ``files`` to one block: the metadata-free table, read
    here with pyarrow in file order and cast to the first file's projected
    schema, as Ray's read would give it. ``(None, n)`` for a read of
    ``n`` > 1 blocks, which is left to Ray. Each footer is parsed once."""
    footers = [pq.read_metadata(f) for f in files]
    n = read_num_blocks(_column_bytes(footers, columns))
    if n != 1:
        return None, n
    schema = _projected(footers[0].schema.to_arrow_schema(), columns)
    tables = [runtime.strip_metadata(
        pq.ParquetFile(f, metadata=md).read(columns=columns))
        for f, md in zip(files, footers)]
    return pa.concat_tables([t if t.schema == schema else t.cast(schema)
                             for t in tables]), 1


def _projected(schema: pa.Schema, columns: list[str] | None) -> pa.Schema:
    schema = schema.remove_metadata()
    return schema if columns is None else pa.schema(
        [schema.field(c) for c in columns])


class _HeldArrow(FromArrow):
    """Ray's ``FromArrow`` source over one table held in the driver. Its
    block is put in the object store (:func:`georay.process_state.put`,
    ~1-3 ms for a 15k-row table) the first time Ray reads the source: to
    plan an execution over it, or to count its rows."""

    def __init__(self, table: pa.Table, meta):
        LogicalOperator.__init__(self, "FromArrow", [], 1)
        self._held = (table, meta)

    @functools.cached_property
    def _input_data(self):
        table, meta = self._held
        return [RefBundle([(put(table), meta)], owns_blocks=False,
                          schema=meta.schema)]


class OneBlock(MaterializedDataset):
    """A one-block Dataset answered in the driver (:func:`one_block`). It
    keeps the pyarrow table it was made from, so ``to_pandas`` converts
    that table in the driver instead of fetching the block back through
    a streaming-executor pass (~30 ms per call), and a zero-row answer
    keeps its typed columns, where Ray's ``to_pandas`` returns none.

    Its map stages run here too. A plan over one block is one Ray task
    (~40 ms of streaming-executor start and teardown), so ``map_batches``
    with a function UDF and ``select_columns`` run on the held table in
    the driver, and their answer is again a :func:`one_block` Dataset; a
    chain of them never starts Ray. Every other method, a class UDF and
    a zero-row table (whose maps Ray answers untyped, without calling
    the UDF) take Ray's lazy path."""

    _table: pa.Table

    def to_pandas(self, limit=None):
        if limit is not None and self._table.num_rows > limit:
            return super().to_pandas(limit)  # Ray's "more than limit" error
        return self._table.to_pandas()

    def map_batches(self, fn, *, batch_size=None, batch_format="default",
                    zero_copy_batch=False, fn_args=None, fn_kwargs=None,
                    **kwargs):
        """Ray's ``map_batches``, run here: the batches Ray's map task
        would cut (the whole block for ``batch_size=None``, else
        consecutive slices of ``batch_size`` rows, copied unless
        ``zero_copy_batch``), in ``batch_format`` through Ray's own
        converters, and ``fn``'s outputs (each yield of a generator, in
        order) built into one block as Ray builds them, metadata-free.
        Resource arguments (``num_cpus``, ``compute``, ...) change nothing
        here, and a UDF error is raised as is. A ``batch_size`` Ray would
        refuse goes to Ray."""
        if (isinstance(fn, type) or not self._table.num_rows
                or not (batch_size is None or isinstance(batch_size, int)
                        and batch_size > 0)):
            return super().map_batches(
                fn, batch_size=batch_size, batch_format=batch_format,
                zero_copy_batch=zero_copy_batch, fn_args=fn_args,
                fn_kwargs=fn_kwargs, **kwargs)
        batch_format = _apply_batch_format(batch_format)
        block = BlockAccessor.for_block(self._table)
        n = block.num_rows()
        step = batch_size or n
        out = DelegatingBlockBuilder()
        for lo in range(0, n, step):
            batch = BlockAccessor.for_block(block.slice(
                lo, min(lo + step, n),
                copy=batch_size is not None and not zero_copy_batch,
            )).to_batch_format(batch_format)
            res = fn(batch, *(fn_args or ()), **(fn_kwargs or {}))
            for got in res if isinstance(res, GeneratorType) else [res]:
                _validate_batch_output(got)
                out.add_batch(got)
        return one_block(runtime.strip_metadata(
            BlockAccessor.for_block(out.build()).to_arrow()))

    def select_columns(self, cols, **kwargs):
        """Ray's ``select_columns``, run here on the held table."""
        if isinstance(cols, str):
            cols = [cols]
        if (not self._table.num_rows or not isinstance(cols, list)
                or not cols or len(set(cols)) != len(cols)):
            return super().select_columns(cols, **kwargs)  # Ray's errors
        return one_block(self._table.select(cols))


def one_block(table: pa.Table) -> OneBlock:
    """``table`` as a materialized one-block Dataset, built the way
    ``ray.data.from_arrow_refs`` builds one but with the block's metadata
    and schema taken here from the table, so no Ray task runs. The one
    constructor of driver-answered Datasets: reads and index answers of
    one block, and the map stages run over them (:class:`OneBlock`). A
    zero-row table keeps its schema in ``schema()``. The block goes to
    the object store only when Ray first reads it (:class:`_HeldArrow`),
    so a driver-run stage whose answer the next stage consumes puts
    nothing."""
    meta = BlockMetadataWithSchema.from_block(
        table, stats=BlockExecStats.builder().build())
    plan = ExecutionPlan(
        DatasetStats(metadata={}, parent=None),
        DataContext.get_current().copy(),
    )
    ds = OneBlock(plan, LogicalPlan(_HeldArrow(table, meta), plan._context))
    ds._table = table
    plan.cache_schema(table.schema)
    return ds


def read_parquet(path_or_files, columns: list[str] | None = None, **kwargs):
    """A parquet read of a file, directory or file list, sized from the
    footers: :func:`read_num_blocks` of the projected columns'
    uncompressed bytes. A read of one block is done here, in the driver
    (:func:`read_one_block`), and comes back as a :func:`one_block`
    Dataset, so planning it starts no Ray task; a larger one is
    ``ray.data.read_parquet`` with the metadata-free projected schema
    (:func:`clean_parquet_schema`) and that block count. Every georay
    parquet read goes through here; ``kwargs`` pass on to Ray, win over
    both, and always take Ray's read."""
    import ray.data

    files = parquet_files(path_or_files)
    if files:
        if not kwargs:
            table, n = read_one_block(files, columns)
            if table is not None:
                return one_block(table)
            kwargs["override_num_blocks"] = n
        if "schema" not in kwargs:
            kwargs["schema"] = clean_parquet_schema(files, columns)
        if "override_num_blocks" not in kwargs:
            kwargs["override_num_blocks"] = read_num_blocks(
                footer_bytes(files, columns))
    return ray.data.read_parquet(path_or_files, columns=columns, **kwargs)


def read_table(path: str, format: str | None = None,
               columns: list[str] | None = None, **kwargs):
    """Read ``path`` as a Dataset. ``format``: parquet / csv / json /
    lance (inferred from the extension when omitted). ``columns`` prunes at
    the reader for parquet/lance; other formats project after the read."""
    import ray.data

    fmt = format or infer_format(path)
    if fmt == "parquet":
        return read_parquet(path, columns, **kwargs)
    elif fmt == "csv":
        ds = ray.data.read_csv(path, **kwargs)
    elif fmt == "json":
        ds = ray.data.read_json(path, **kwargs)
    elif fmt == "lance":
        try:
            import lance  # noqa: F401
        except ImportError as exc:
            raise ImportError(
                "lance format requires the 'pylance' package (absent in "
                "this sandbox); the parquet facade carries the identical "
                "schema — point read_table at the parquet layout instead"
            ) from exc
        ds = ray.data.read_lance(path, columns=columns, **kwargs)
        columns = None
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if columns is not None:
        ds = ds.select_columns(columns)
    return ds.map_batches(
        runtime.strip_metadata, batch_format="pyarrow", zero_copy_batch=True
    )


def write_table(ds, path: str, format: str | None = None,
                partition_col: str | None = None, lineage: str | None = None,
                **kwargs):
    """Write a Dataset. With ``partition_col``, uses the checkpointed
    partitioned parquet sink (atomic per-partition commit + manifest +
    resume — the layout for resumable large outputs); otherwise the plain
    format writer. Returns the manifest dict for partitioned writes."""
    fmt = format or infer_format(path)
    if partition_col is not None:
        if fmt != "parquet":
            raise ValueError("partitioned writes are parquet-only")
        return runtime.write_partitioned(
            ds, path, partition_col, lineage=lineage, **kwargs
        )
    if fmt == "parquet":
        return ds.write_parquet(path, **kwargs)
    if fmt == "csv":
        return ds.write_csv(path, **kwargs)
    if fmt == "json":
        return ds.write_json(path, **kwargs)
    raise ValueError(f"unknown format {fmt!r}")

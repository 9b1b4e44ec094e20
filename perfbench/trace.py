"""The traced run (``--trace 1``): per-layer metrics from spans.

Whatever workload is named, the traced run covers every layer, so the same
per-layer metrics come out of each run: one iteration of each workload runs
untraced, then the same iteration runs traced. The traced iteration wraps
the public functions of georay's modules, from outside, so that each wrapper
materializes its input and its output: every span then holds the work of
one layer. Spans (name, start, end, parent, request) are kept in memory and
written once, at the end, to ``.perfbench_data/out/``; self time is a span's
duration minus what its child spans cover.

Kernel metrics (decode, contains, codec, cells) are timed in this process on a
fixed sample. End-to-end metrics never come from this run.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pyarrow.parquet as pq

import georay
from georay import cells, codec, fixtures, images, jpeg, runtime
from georay.geometry import PolygonSet
from georay.index import CellIndex
from georay.ops import images as img_ops
from georay.ops import join, knn, pip, spatial, tiles
from perfbench import cluster
from perfbench import inputs as inp
from perfbench.client import Client
from perfbench.host import CpuTimes, SchemaWarningCounter, cpus_available, nproc
from perfbench.probe import ReadProbe
from perfbench.workloads import POINT_PLANS, WORKLOADS, Workload

# per-layer metric -> (end-to-end metric it should move, workload); names
# and units are those of BENCHMARK.json's per_layer list
MOVES = {
    "fixtures.read_s": ("mix_s (images_per_s)", "images_flagship"),
    "fixtures.read_bytes": ("mix_s (images_per_s)", "images_flagship"),
    "fixtures.gen_s": ("setup_s", "images_flagship"),
    "images.decode_us.bmp": ("mix_s", "images_flagship"),
    "images.decode_us.png": ("mix_s", "images_flagship"),
    "images.decode_us.q6": ("mix_s", "images_flagship"),
    "jpeg.decode_us": ("mix_s", "images_flagship"),
    "ops.images.decode_invariant_s": ("mix_s", "images_flagship"),
    "ops.images.ok_ratio": ("mix_s", "images_flagship"),
    "ops.images.udf_overhead_s": ("mix_s", "images_flagship"),
    "geometry.contains_ns_per_point": ("mix_s", "images_flagship"),
    "ops.pip.assign_s": ("mix_s", "images_flagship"),
    "ops.pip.pairs_out": ("mix_s", "images_flagship"),
    "ops.tiles.count_by_s": ("mix_s", "images_flagship"),
    "ops.tiles.tile_counts_agg_s": ("mix_s (tile_counts_s)", "points"),
    "codec.encode_mpts_per_s": ("mix_s (lookup_ms_p50, box_ms_p50)", "points"),
    "codec.decode_mpts_per_s": ("mix_s (lookup_ms_p50, box_ms_p50)", "points"),
    "cells.k_ring_us": ("mix_s (lookup_ms_p50)", "points"),
    "codec.bounding_boxes_us": ("mix_s (box_ms_p50)", "points"),
    "ops.spatial.points_with_cells_s": ("mix_s (all five plans)", "points"),
    "ops.join.broadcast_s": ("mix_s (spatial_join_s)", "points"),
    "ops.join.shuffle_s": ("mix_s (spatial_join_shuffle_s)", "points"),
    "ops.join.pairs_out": ("mix_s", "points"),
    "ops.knn.ring_s": ("mix_s (knn_ring1_s)", "points"),
    "ops.knn.shuffle_s": ("mix_s (knn_shuffle_s)", "points"),
    "ops.knn.rows_out": ("mix_s", "points"),
    "index.build_s": ("mix_s (index_build_rows_per_s)", "points"),
    "index.files_written": ("mix_s (index_build_rows_per_s)", "points"),
    "index.bytes_written_per_input_byte": ("mix_s (index_build_rows_per_s)", "points"),
    "index.files_per_lookup": ("mix_s (lookup_ms_p50, lookup_ms_p90)", "points"),
    "index.rows_examined_per_row_returned": ("mix_s (lookup_ms_p50, lookup_ms_p90)", "points"),
    "index.plan_s": ("mix_s (lookup_ms_p50, lookup_ms_p90)", "points"),
    "index.execute_s": ("mix_s (lookup_ms_p50, lookup_ms_p90)", "points"),
    "ray.schema_mismatch_warnings": ("ok_share", "all"),
    "ray.read_schedulable_at_nproc": ("ok_share", "all"),
    "host.steal_frac": ("all", "all"),
    "host.sys_frac": ("all", "all"),
    "trace.overhead_frac": ("all", "all"),
}
# Ray Data operators of the exchange-bound plans, grouped by kind:
# ray.op.<plan>.<kind>.{wall_s,rows_out,tasks}
RAY_OP_PLANS = {
    "join_shuffle": ("ops.join.shuffle", "mix_s (spatial_join_shuffle_s)"),
    "knn_shuffle": ("ops.knn.shuffle", "mix_s (knn_shuffle_s)"),
    "index_write": ("runtime.write_partitioned", "mix_s (index_build_rows_per_s)"),
}
RAY_OP_KINDS = ("map", "exchange")
for _plan, (_span, _moves) in RAY_OP_PLANS.items():
    for _kind in RAY_OP_KINDS:
        for _stat in ("wall_s", "rows_out", "tasks"):
            MOVES[f"ray.op.{_plan}.{_kind}.{_stat}"] = (_moves, "points")


def layer_units() -> dict[str, str]:
    """Per-layer metric -> unit, as BENCHMARK.json lists them."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    if set(units) != set(MOVES):
        raise ValueError("BENCHMARK.json per_layer and trace.MOVES disagree: "
                         f"{sorted(set(units) ^ set(MOVES))}")
    return units


class Tracer:
    """In-memory spans; ``request`` tags every span of one operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request: str | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "request": self.request,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def self_s(self, name: str, request: str | None = None) -> float:
        st = self.self_times()
        return sum(st[s["id"]] for s in self.spans
                   if s["name"] == name and request in (None, s["request"]))

    def find(self, name: str, request: str | None = None) -> list[dict]:
        return [s for s in self.spans
                if s["name"] == name and request in (None, s["request"])]


def _op_stats(ds) -> list[tuple[str, object]]:
    """(key, operator summary) for every operator in a Dataset's stats,
    upstream first."""
    out = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            out.append((summary.dataset_uuid + op.operator_name, op))

    walk(ds._get_stats_summary())
    return out


def _kind(operator_name: str) -> str:
    # inputs are materialized before each wrapped stage, so no read is left
    exchange = ("Join", "Sort", "Shuffle", "Repartition", "Aggregate", "AllToAll")
    return "exchange" if any(w in operator_name for w in exchange) else "map"


def _kind_stats(ops) -> dict:
    """wall_s (sum of task wall times), rows_out (of the kind's last
    operator) and tasks per operator kind."""
    out = {k: {"wall_s": 0.0, "rows_out": 0, "tasks": 0} for k in RAY_OP_KINDS}
    for _key, op in ops:
        k = out[_kind(op.operator_name)]
        k["wall_s"] += (op.wall_time or {}).get("sum", 0.0)
        k["rows_out"] = int((op.output_num_rows or {}).get("sum", 0))
        k["tasks"] += int((op.task_rows or {}).get("count", 0))
    return out


class LayerWrappers:
    """Swaps georay's public functions for wrappers that materialize at the
    layer boundary inside a span; ``restore`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        import ray.data

        self.tracer = tracer
        self.Dataset = ray.data.Dataset
        self.ray_ops: dict[str, list] = {}
        self.facts: dict[str, list] = {}
        self._saved = []
        self._patch(fixtures, "read_images_n", "fixtures.read", self._read_images)
        for mod, name, span in (
            (img_ops, "decode_invariant", "ops.images.decode_invariant"),
            (pip, "pip_assign", "ops.pip.assign"),
            (tiles, "count_by", "ops.tiles.count_by"),
            (tiles, "tile_counts", "ops.tiles.tile_counts_agg"),
            (spatial, "points_with_cells", "ops.spatial.points_with_cells"),
            (join, "broadcast_cell_join", "ops.join.broadcast"),
            (join, "shuffle_cell_join", "ops.join.shuffle"),
            (knn, "knn_ring", "ops.knn.ring"),
            (knn, "knn_shuffle", "ops.knn.shuffle"),
        ):
            self._patch(mod, name, span, self._stage)
        self._patch(runtime, "write_partitioned", "runtime.write_partitioned",
                    self._write)
        self._patch(CellIndex, "query_cells", "index.query_cells", self._query)

    def _patch(self, owner, name: str, span: str, how) -> None:
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))

        def wrapper(*args, **kwargs):
            return how(span, orig, args, kwargs)

        setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)

    def _note(self, key: str, value) -> None:
        self.facts.setdefault(key, []).append(value)

    def _materialized_input(self, span: str, args: tuple) -> tuple:
        # unwrapped upstream stages (reads, small maps) run in their own span
        if args and isinstance(args[0], self.Dataset):
            with self.tracer.span(span + ".input"):
                args = (args[0].materialize(), *args[1:])
            self._note(span + ".input_bytes", args[0].size_bytes())
            self._note(span + ".input_rows", args[0].count())
        return args

    def _stage(self, span, orig, args, kwargs):
        args = self._materialized_input(span, args)
        before = {k for k, _ in _op_stats(args[0])} if args else set()
        with self.tracer.span(span):
            out = orig(*args, **kwargs).materialize()
        self._note(span + ".rows_out", out.count())
        self.ray_ops.setdefault(span, []).append(
            [(k, op) for k, op in _op_stats(out) if k not in before])
        return out

    def _read_images(self, span, orig, args, kwargs):
        with self.tracer.span(span):
            out = orig(*args, **kwargs).materialize()
        self._note(span + ".bytes", out.size_bytes())
        return out

    def _write(self, span, orig, args, kwargs):
        args = self._materialized_input(span, args)
        executed = []
        iter_rows = self.Dataset.iter_rows

        def capture(ds, *a, **kw):  # write_partitioned consumes its stats this way
            executed.append(ds)
            return iter_rows(ds, *a, **kw)

        self.Dataset.iter_rows = capture
        try:
            with self.tracer.span(span):
                out = orig(*args, **kwargs)
        finally:
            self.Dataset.iter_rows = iter_rows
        before = {k for k, _ in _op_stats(args[0])}
        self.ray_ops.setdefault(span, []).append(
            [(k, op) for ds in executed for k, op in _op_stats(ds) if k not in before])
        return out

    def _query(self, span, orig, args, kwargs):
        import ray.data

        read_parquet = ray.data.read_parquet
        files: list[str] = []

        def capture(paths, *a, **kw):  # the pruned file list the index reads
            files.extend(paths)
            return read_parquet(paths, *a, **kw)

        ray.data.read_parquet = capture
        try:
            with self.tracer.span("index.plan"):
                ds = orig(*args, **kwargs)
        finally:
            ray.data.read_parquet = read_parquet
        out = None
        if ds is not None:
            with self.tracer.span("index.execute"):
                out = ds.materialize()
        self._note("index.files", len(files))
        self._note("index.rows_examined", sum(pq.read_metadata(f).num_rows for f in files))
        self._note("index.rows_returned", 0 if out is None else out.count())
        return out


# ------------------------------------------------------------ kernels


def _median_us(fn, items) -> float:
    ts = []
    for it in items:
        t0 = time.perf_counter()
        fn(it)
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts) * 1e6


def kernel_metrics(data: inp.Inputs) -> dict:
    """Kernel timings in this process, on fixed samples (warm: each sample is
    run once before it is timed)."""
    out = {}
    image_dir = fixtures.ensure_images_table_n(inp.N_IMAGES)
    t = pq.read_table(sorted(glob.glob(os.path.join(image_dir, "*.parquet")))[0])
    rows = list(zip(t["fmt"].to_pylist(), t["bytes"].to_pylist()))
    for fmt in ("bmp", "png", "q6"):
        blobs = [b for f, b in rows if f == fmt][:64]
        _median_us(lambda b: images.decode_image(b, fmt), blobs)
        out[f"images.decode_us.{fmt}"] = _median_us(
            lambda b: images.decode_image(b, fmt), blobs)
    blobs = [b for f, b in rows if f == "jpeg"][:32]
    _median_us(jpeg.decode_jpeg, blobs)
    out["jpeg.decode_us"] = _median_us(jpeg.decode_jpeg, blobs)

    idx = np.arange(inp.N_IMAGES)
    lon, lat = fixtures.row_coords(idx)
    ids, _zooms, rings = fixtures.make_tiles()
    polys = PolygonSet(ids, rings, bits=10)
    polys.contains(lon, lat)
    t0 = time.perf_counter()
    polys.contains(lon, lat)
    out["geometry.contains_ns_per_point"] = (time.perf_counter() - t0) / idx.size * 1e9

    oracle = inp.PointOracle(os.path.join(data.tables, "lineitem.parquet"))
    n = oracle.key.size
    t0 = time.perf_counter()
    code = codec.encode(oracle.lon, oracle.lat, inp.INDEX_BITS)
    out["codec.encode_mpts_per_s"] = n / (time.perf_counter() - t0) / 1e6
    t0 = time.perf_counter()
    codec.decode(code, inp.INDEX_BITS)
    out["codec.decode_mpts_per_s"] = n / (time.perf_counter() - t0) / 1e6
    sample = [code[i:i + 1] for i in range(0, n, n // 200)]
    _median_us(lambda c: cells.k_ring(c, inp.INDEX_BITS, 1), sample)
    out["cells.k_ring_us"] = _median_us(lambda c: cells.k_ring(c, inp.INDEX_BITS, 1), sample)
    boxes = [(x, y, x + 10.0, y + 10.0) for x in range(-180, 170, 35) for y in range(-90, 80, 34)]
    _median_us(lambda b: codec.bounding_boxes(b, inp.INDEX_BITS), boxes)
    out["codec.bounding_boxes_us"] = _median_us(
        lambda b: codec.bounding_boxes(b, inp.INDEX_BITS), boxes)

    # UDF body of the decode stage, per row, for the UDF-overhead split
    table = t.select(["image_id", "fmt", "bytes", "caption", "lon", "lat"])
    body = img_ops.DecodeInvariant()
    body(table)
    t0 = time.perf_counter()
    body(table)
    out["_decode_body_s_per_row"] = (time.perf_counter() - t0) / table.num_rows
    return out


# ------------------------------------------------------------ the run


# operations of each kind in one traced iteration
ITERATION = {"flagship": 1, "build": 1, **{p: 1 for p in POINT_PLANS},
             "lookup": 10, "box": 2}


def _iteration(workload: Workload) -> list:
    """One iteration of a workload: its first operations of each kind, in
    stream order, up to the ITERATION counts."""
    want = {k: ITERATION[k] for k in workload.kinds}
    out = []
    for op in workload.ops():
        if want[op.kind] > 0:
            want[op.kind] -= 1
            out.append(op)
            if not any(want.values()):
                return out


def run_traced(args, data: inp.Inputs, client: Client) -> dict:
    units = layer_units()
    probe = ReadProbe(data.probe_images, data.ray_tmp + "_probe", nproc())
    try:
        phases = [Workload(name, data, args.seed) for name in WORKLOADS]
        iterations = [(w, _iteration(w)) for w in phases]
    finally:
        probe_res = probe.result()

    tracer = Tracer()
    values: dict = {}
    untraced_s = traced_s = 0.0
    with SchemaWarningCounter() as warnings:
        cpu0 = CpuTimes()
        with cluster.node(data.ray_tmp):
            for w, _ in iterations:
                for op in w.warm_ops:
                    client.run(op, record=False)
            for w, ops in iterations:
                t0 = time.perf_counter()
                for op in ops:
                    client.run(op, record=False)
                untraced_s += time.perf_counter() - t0
                wrappers = LayerWrappers(tracer)
                try:
                    t0 = time.perf_counter()
                    for op in ops:
                        tracer.request = op.kind
                        with tracer.span(f"request.{op.kind}"):
                            client.run(op, record=False)
                    traced_s += time.perf_counter() - t0
                finally:
                    wrappers.restore()
                    tracer.request = None
                values.update(_collect(tracer, wrappers, w.name, data))
            gen_root = os.path.join(data.out, "gen")
            shutil.rmtree(gen_root, ignore_errors=True)
            t0 = time.perf_counter()
            fixtures.ensure_images_table_n(inp.N_IMAGES, cache_root=gen_root)
            gen_s = time.perf_counter() - t0
            shutil.rmtree(gen_root, ignore_errors=True)
        host = CpuTimes().fractions_since(cpu0)
    values.update(kernel_metrics(data))
    # task time of the decode stage beyond what the UDF body alone costs
    per_row = values.pop("_decode_body_s_per_row")
    values["ops.images.udf_overhead_s"] = (
        values.pop("_decode_task_s") - per_row * values.pop("_decode_rows_in"))
    values.update({
        "fixtures.gen_s": gen_s,
        "ray.schema_mismatch_warnings": warnings.count,
        "ray.read_schedulable_at_nproc": int(bool(probe_res["schedulable"])),
        "host.steal_frac": host["steal_frac"],
        "host.sys_frac": host["sys_frac"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    os.makedirs(data.out, exist_ok=True)
    spans_path = os.path.join(data.out, f"spans_{args.workload}_{args.seed}.json")
    with open(spans_path, "w") as f:
        json.dump({"spans": tracer.spans, "self_s": tracer.self_times()}, f)
    record = {
        "workload": args.workload, "seed": args.seed, "nproc": nproc(),
        "cpus_available": cpus_available(), "logical_cpus": cluster.LOGICAL_CPUS,
        "georay": georay.__version__, "read_probe": probe_res,
        "untraced_s": untraced_s, "traced_s": traced_s, "spans": spans_path,
        "layers": {k: {"value": values[k], "unit": u, "moves": MOVES[k][0],
                       "workload": MOVES[k][1]} for k, u in units.items()},
        "errors": client.errors,
    }
    print(json.dumps({"record": record}), flush=True)
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def _collect(tracer: Tracer, wr: LayerWrappers, workload: str, data: inp.Inputs) -> dict:
    """Layer values from one traced iteration's spans and notes."""
    f, v = wr.facts, {}
    if workload == "images_flagship":
        rows_in = f["ops.images.decode_invariant.input_rows"][0]
        v["fixtures.read_s"] = tracer.self_s("fixtures.read")
        v["fixtures.read_bytes"] = f["fixtures.read.bytes"][0]
        v["ops.images.decode_invariant_s"] = tracer.self_s("ops.images.decode_invariant")
        # summed task wall time of the decode stage, for the UDF-overhead split
        v["_decode_task_s"] = sum(
            (op.wall_time or {}).get("sum", 0.0)
            for _k, op in wr.ray_ops["ops.images.decode_invariant"][0])
        v["_decode_rows_in"] = rows_in
        v["ops.images.ok_ratio"] = f["ops.pip.assign.input_rows"][0] / rows_in
        v["ops.pip.assign_s"] = tracer.self_s("ops.pip.assign")
        v["ops.pip.pairs_out"] = f["ops.pip.assign.rows_out"][0]
        v["ops.tiles.count_by_s"] = tracer.self_s("ops.tiles.count_by")
    else:
        v["ops.tiles.tile_counts_agg_s"] = tracer.self_s("ops.tiles.tile_counts_agg")
        v["ops.spatial.points_with_cells_s"] = tracer.self_s(
            "ops.spatial.points_with_cells", "spatial_join")
        v["ops.join.broadcast_s"] = tracer.self_s("ops.join.broadcast")
        v["ops.join.shuffle_s"] = tracer.self_s("ops.join.shuffle")
        v["ops.join.pairs_out"] = f["ops.join.broadcast.rows_out"][0]
        v["ops.knn.ring_s"] = tracer.self_s("ops.knn.ring")
        v["ops.knn.shuffle_s"] = tracer.self_s("ops.knn.shuffle")
        v["ops.knn.rows_out"] = f["ops.knn.ring.rows_out"][0]
        parts = glob.glob(os.path.join(data.index, "part-*.parquet"))
        v["index.build_s"] = sum(s["end"] - s["start"] for s in tracer.find("request.build"))
        v["index.files_written"] = len(parts)
        v["index.bytes_written_per_input_byte"] = (
            sum(os.path.getsize(p) for p in parts)
            / f["runtime.write_partitioned.input_bytes"][0])
        # one note per query_cells call, lookups and box queries in order
        calls = [s["request"] == "lookup" for s in tracer.find("index.plan")]
        pick = [i for i, is_lookup in enumerate(calls) if is_lookup]
        returned = sum(f["index.rows_returned"][i] for i in pick)
        v["index.files_per_lookup"] = statistics.mean(f["index.files"][i] for i in pick)
        v["index.rows_examined_per_row_returned"] = (
            sum(f["index.rows_examined"][i] for i in pick) / max(returned, 1))
        v["index.plan_s"] = statistics.median(
            s["end"] - s["start"] for s in tracer.find("index.plan", "lookup"))
        v["index.execute_s"] = statistics.median(
            s["end"] - s["start"] for s in tracer.find("index.execute", "lookup"))
    for plan, (span, _moves) in RAY_OP_PLANS.items():
        if span in wr.ray_ops:
            for kind, st in _kind_stats(wr.ray_ops[span][0]).items():
                for stat, val in st.items():
                    v[f"ray.op.{plan}.{kind}.{stat}"] = val
    return v

"""Distributed PageRank in EXACT fixed-point integers.

Ranks live as int64 micro-units (``SCALE = 10^12`` total mass), every
per-iteration update is integer floor arithmetic — sums are
order-independent, so the result is bit-identical to an SQL twin that
unrolls the same iterations, and deterministic across any partitioning.
(The classic float formulation is replayed exactly by substituting
``r//out`` and ``dangling//N`` for the divisions; with d = 85/100:
``r'(v) = (15·(SCALE//N))//100 + (85·(in_sum(v) + dangling//N))//100``.)

Plan per iteration (everything distributed; only two scalars reach the
driver): a hash join ships each src rank to its edges (contribution
``r // out``), and one ``group_agg`` over the in-flows unioned with a zero
row per node rebuilds the full node table (no outer join). The dangling
mass is ONE Sum aggregate over out-degree-0 rows per iteration, like the
k-means per-iteration pull.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay.runtime import adaptive_partitions, group_agg, join

SCALE = 10**12
D_NUM, D_DEN = 85, 100  # damping 0.85 as an exact rational


def _distinct_edges(ds, src_col: str, dst_col: str):
    """DISTINCT (src, dst): batch-local pair dedup first — repeated pairs
    never leave their block — then the pair-hash bucket distinct
    (ops.pairs.distinct_pairs; the old groupby(src,dst) sort-aggregate was
    the remaining wall after the driver-loop dual plan landed)."""
    from georay.ops.pairs import distinct_pairs

    def local(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t[src_col], "dst": t[dst_col],
        }).group_by(["src", "dst"]).aggregate([])

    return (
        distinct_pairs(
            ds.map_batches(local, batch_format="pyarrow",
                           zero_copy_batch=True),
            a_col="src", b_col="dst",
        )
        .materialize()  # reused every iteration
    )


def pagerank(ds, src_col: str, dst_col: str, iterations: int = 3,
             num_partitions: int | None = None,
             driver_max_edges: int = 5_000_000):
    """Integer PageRank over the DISTINCT (src, dst) edges of ``ds``.

    Returns a Dataset of ``(node, outd, r)`` after ``iterations`` rounds —
    r in SCALE-units summing (up to floor slack) to SCALE. Callers top-k /
    join as needed.

    Dual plan: edge dedup is always distributed, but when the distinct
    edge count is at most ``driver_max_edges`` the iterations run as a
    driver-side numpy loop (np.add.at bincount — bit-identical integers,
    since every update is an order-independent int64 sum). The
    distributed per-iteration plan (2 joins + union-group_agg, below) pays
    ~6 exchanges per call in fixed overhead — 23–43 s at sf0.1 for a
    21k-node graph (measured with Ray's actor-based joins) whose whole
    iteration loop is 10 ms of numpy — and remains the >driver_max_edges
    path.

    ``num_partitions=None`` → ``runtime.adaptive_partitions()`` for the
    edge table's blocks and the distributed plan's per-iteration joins."""
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    edges = _distinct_edges(ds, src_col, dst_col)

    if edges.count() <= driver_max_edges:
        import ray

        et = pa.concat_tables(list(edges.iter_batches(batch_format="pyarrow")))
        src = et["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = et["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.unique(np.concatenate([src, dst]))
        si = np.searchsorted(node, src)
        di = np.searchsorted(node, dst)
        outd = np.bincount(si, minlength=node.size).astype(np.int64)
        n_nodes = node.size
        r = np.full(n_nodes, SCALE // n_nodes, np.int64)
        base = (15 * (SCALE // n_nodes)) // D_DEN
        for _ in range(iterations):
            dang_share = int(r[outd == 0].sum(dtype=np.int64)) // n_nodes
            contrib = r[si] // outd[si]
            ins = np.zeros(n_nodes, np.int64)
            np.add.at(ins, di, contrib)
            r = base + (D_NUM * (ins + dang_share)) // D_DEN
        return ray.data.from_arrow(
            pa.table({"node": node, "outd": outd, "r": r})
        )

    # node table with out-degrees: every edge counts 1 for its src and 0
    # for its dst (so sink nodes appear too), one group_agg sums them.
    def endpoint(col: str, out: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"node": t[col],
                             "o": np.full(t.num_rows, out, np.int64)})
        return fn

    nodes = group_agg(
        edges.map_batches(endpoint("src", 1), batch_format="pyarrow",
                          zero_copy_batch=True)
        .union(edges.map_batches(endpoint("dst", 0), batch_format="pyarrow",
                                 zero_copy_batch=True)),
        "node", {"outd": ("sum", "o")},
    ).materialize()
    n_nodes = int(nodes.count())
    r0 = SCALE // n_nodes
    base = (15 * (SCALE // n_nodes)) // D_DEN  # (1-d)·SCALE/N in exact ints

    def init(t: pa.Table) -> pa.Table:
        return t.append_column(
            "r", pa.array(np.full(t.num_rows, r0, np.int64)))

    ranks = nodes.map_batches(
        init, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    for _ in range(iterations):
        # dangling mass: ONE scalar to the driver
        def dang_partial(t: pa.Table) -> pa.Table:
            outd = t["outd"].to_numpy(zero_copy_only=False)
            r = t["r"].to_numpy(zero_copy_only=False)
            return pa.table({"d": pa.array(
                [r[outd == 0].sum(dtype=np.int64)], pa.int64())})

        dang = int(ranks.map_batches(
            dang_partial, batch_format="pyarrow", zero_copy_batch=True
        ).sum("d") or 0)
        dang_share = dang // n_nodes

        contrib = join(edges, ranks, "inner", on=("src",), right_on=("node",),
                       num_partitions=num_partitions)

        def edge_contrib(t: pa.Table) -> pa.Table:
            r = t["r"].to_numpy(zero_copy_only=False)
            outd = t["outd"].to_numpy(zero_copy_only=False)
            return pa.table({"node": t["dst"], "in_p": r // outd})

        in_sums = contrib.map_batches(
            edge_contrib, batch_format="pyarrow", zero_copy_batch=True)

        def zero_rows(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["node"],
                             "in_p": np.zeros(t.num_rows, np.int64)})

        in_full = group_agg(
            in_sums.union(ranks.map_batches(
                zero_rows, batch_format="pyarrow", zero_copy_batch=True)),
            "node", {"ins": ("sum", "in_p")},
        )

        joined = join(in_full, nodes, "inner", on=("node",),
                      num_partitions=num_partitions)

        def update(t: pa.Table) -> pa.Table:
            ins = t["ins"].to_numpy(zero_copy_only=False)
            r_new = base + (D_NUM * (ins + dang_share)) // D_DEN
            return pa.table({"node": t["node"], "outd": t["outd"],
                             "r": pa.array(r_new.astype(np.int64))})

        ranks = joined.map_batches(
            update, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()

    return ranks

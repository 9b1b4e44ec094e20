"""Grid-accelerated DBSCAN over point Datasets (SURVEY.md N4/N5 depth:
proximity JOINS answer "who is near whom"; density clustering answers the
geospatial question users actually ask of dense urban geohashes — "which
points form a contiguous hot region, and which are isolated noise").

Classic DBSCAN is order-dependent at the border points; this is the
DETERMINISTIC formulation (same one the SQL twin replays):

- ``N_eps(p)`` = all points within Euclidean degree distance ``eps``
  (squared-degree metric, the frozen expression order of the kNN/dwithin
  family) — including ``p`` itself (the self-pair).
- core(p)   ⇔ |N_eps(p)| >= min_pts.
- Components of the core-core proximity graph get stable labels = the MIN
  core id reachable (the same min-label contract as ops.cluster).
- EVERY point's label = MIN over {component(n) : n ∈ N_eps(p), n core}.
  For a core point that is its own component id (p ∈ N_eps(p)); for a
  border point it is the smallest adjacent core component (deterministic,
  order-free); points with no core neighbor are noise (label -1).
- role: 2 = core, 1 = border, 0 = noise.

Scale shape — everything is the repo's existing machinery:
1. The eps-neighborhood pair list comes from ops.knn.dwithin_shuffle
   (cell-grid ring explode + ONE hash shuffle + vectorized distance
   filter; the ring provably covers ``eps``). Pairs are materialized once
   (bounded by the true neighbor-pair count, avg_degree × n) and reused by
   the three downstream consumers instead of re-running the exchange.
2. Degree counts and label mins are ``runtime.group_agg`` calls: the
   combine sees one row per (point, batch), not one per pair.
3. Core-component labels come from ops.cluster.connected_components
   (driver union-find under the broadcast cap, distributed min-label
   propagation above it).
Skewed dense cells are the dwithin exchange's problem and are handled
there (hash-partitioned cells); no stage here holds more than one batch
plus the O(cores) component table per partition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from georay.ops import knn as knn_ops
from georay.ops.cluster import connected_components
from georay.runtime import adaptive_partitions, group_agg, join


def grid_dbscan(
    points_ds,
    bits: int,
    eps: float,
    min_pts: int,
    id_col: str = "id",
    num_partitions: int | None = None,
):
    """Deterministic grid DBSCAN. ``points_ds`` carries ``id_col`` +
    ``lon``/``lat``/``cell`` (ops.spatial.points_with_cells layout).
    Returns a Dataset ``(id_col, cluster, role)`` — cluster = min reachable
    core id (int64, -1 for noise), role ∈ {2 core, 1 border, 0 noise}.

    ``num_partitions=None`` → ``runtime.adaptive_partitions()`` (≈ cluster
    CPUs) for the pair join + label exchanges (VERDICT r4 #4).
    """
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    def as_side(name):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    name: t[id_col],
                    "lon": t["lon"],
                    "lat": t["lat"],
                    "cell": t["cell"],
                }
            )

        return fn

    q = points_ds.map_batches(as_side("pid"), batch_format="pyarrow")
    r = points_ds.map_batches(as_side("nid"), batch_format="pyarrow")

    # 1. eps-neighborhood pairs, reused 3× below: degree counts, core-core
    # edges, border label assignment. Bounded by the true pair count.
    pairs = (
        knn_ops.dwithin_shuffle(
            q, r, bits=bits, radius=eps, query_id="pid", ref_id="nid",
            num_partitions=num_partitions,
        )
        .select_columns(["pid", "nid"])
        .materialize()
    )

    # 2. degree → core flag (every point has its self-pair, so deg covers
    # the whole point set — it doubles as the full-id spine for the final
    # left join)
    deg = group_agg(pairs, "pid", {"cnt": ("count", None)}).materialize()

    core = deg.map_batches(
        lambda t: pa.table(
            {"pid": t.filter(pc.greater_equal(t["cnt"], min_pts))["pid"]}
        ),
        batch_format="pyarrow",
    ).materialize()

    if core.count() == 0:
        # no core point anywhere (sparse regime): every point is noise —
        # exact short-circuit; also keeps a zero-row side out of the
        # left-outer join below (runtime.join cannot type its columns)
        def all_noise(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table(
                {
                    id_col: t["pid"],
                    "cluster": pa.array(np.full(n, -1, dtype=np.int64)),
                    "role": pa.array(np.zeros(n, dtype=np.int64)),
                }
            )

        return deg.map_batches(all_noise, batch_format="pyarrow")

    core_n = core.map_batches(
        lambda t: pa.table({"nid": t["pid"]}), batch_format="pyarrow"
    )

    # 3. core-core edges → components (stable min-id labels)
    edges = (
        join(
            join(pairs, core, "inner", on=("pid",),
                 num_partitions=num_partitions),
            core_n, "inner", on=("nid",), num_partitions=num_partitions,
        )
        .map_batches(
            lambda t: t.filter(pc.not_equal(t["pid"], t["nid"])),
            batch_format="pyarrow",
        )
    )
    comps = connected_components(
        core, edges, node_col="pid", edge_a="pid", edge_b="nid",
        num_partitions=num_partitions,
    ).map_batches(
        lambda t: pa.table({"nid": t["pid"], "component": t["component"]}),
        batch_format="pyarrow",
    ).repartition(num_partitions)

    # 4. every point's label = MIN adjacent core component (one rule for
    # core AND border: a core point is adjacent to itself)
    lab = group_agg(
        join(pairs, comps, "inner", on=("nid",),
             num_partitions=num_partitions),
        "pid", {"lbl": ("min", "component")},
    )

    out = join(deg, lab, "left_outer", on=("pid",),
               num_partitions=num_partitions)

    def finish(t: pa.Table) -> pa.Table:
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        has = pc.is_valid(t["lbl"]).to_numpy(zero_copy_only=False)
        lblf = t["lbl"].cast(pa.float64()).to_numpy(zero_copy_only=False)
        cluster = np.where(
            has, np.nan_to_num(lblf, nan=-1.0), -1.0
        ).astype(np.int64)
        role = np.where(cnt >= min_pts, 2, np.where(has, 1, 0)).astype(
            np.int64
        )
        return pa.table(
            {
                id_col: t["pid"],
                "cluster": pa.array(cluster),
                "role": pa.array(role),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")

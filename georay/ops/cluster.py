"""Distributed connected components → near-duplicate CLUSTERS (SURVEY.md N8
depth: pair lists are not actionable for dedup — the keep/drop decision needs
the transitive closure, "A~B, B~C ⇒ keep one of {A,B,C}").

Min-label propagation over an edge Dataset: every node starts labeled with
itself; each round, labels flow across edges (two hash joins + a min-groupby)
AND every label pointer-jumps to its label's label (the shortcutting step of
the large-star/small-star family — Kiveris et al., "Connected Components in
MapReduce and Beyond", SoCC'14), so chain distances halve per round and
convergence takes O(log diameter) rounds, not O(diameter) — a 10⁴-long
near-dup chain (duplicated boilerplate) converges in ~15 rounds instead of
10⁴ (VERDICT r4 #6; round bound unit-tested on a chain graph). Each round's
label table is materialized (bounded: one row per node) so the lazy lineage
doesn't re-execute from scratch; the edge set streams through joins
unshuffled each round. Convergence is detected by the monotone total-label
sum (labels only ever decrease; equal sum ⇒ fixed point).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from georay.runtime import adaptive_partitions, broadcast, group_agg, join


def connected_components(
    nodes_ds,
    edges_ds,
    node_col: str = "node",
    edge_a: str = "id_a",
    edge_b: str = "id_b",
    num_partitions: int | None = None,
    max_rounds: int = 50,
    broadcast_edges_max: int = 2_000_000,
    round_counter: list | None = None,
):
    """(node, component) labeling: component = min node id reachable.

    ``nodes_ds``: one integer id per row (singletons allowed);
    ``edges_ds``: undirected edges. Returns a Dataset (node, component).

    Two physical plans, chosen by edge count (the small-side-broadcast
    rule): edge sets up to ``broadcast_edges_max`` are union-found on the
    driver (edges are tiny relative to nodes for near-dup graphs) and the
    node→component map is broadcast once into a ``map_batches`` over the
    node stream; larger edge sets run the distributed min-label
    propagation with per-round pointer jumping (see module docstring —
    O(log diameter) rounds). ``round_counter``, if given, receives one
    append per distributed round (test hook for the log-round bound).
    ``num_partitions=None`` → ``runtime.adaptive_partitions()`` (≈ cluster
    CPUs, VERDICT r4 #4)."""
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    edge_pairs = edges_ds.select_columns([edge_a, edge_b]).materialize()
    n_edges = edge_pairs.count()
    if n_edges <= broadcast_edges_max:
        return _cc_broadcast(nodes_ds, edge_pairs, node_col, edge_a, edge_b)

    def init_labels(t: pa.Table) -> pa.Table:
        ids = t[node_col].to_numpy(zero_copy_only=False)
        # is_node marks real members of nodes_ds: labels gained through
        # edge propagation for endpoints OUTSIDE nodes_ds are dropped at
        # the end, so both physical plans return the same row set.
        # int64 (not int8): the max aggregate keeps its input type, and
        # int64 matches the zero rows unioned in below — a column whose
        # dtype flips between rounds defeats Ray's block-schema dedup
        return pa.table(
            {"node": pa.array(ids), "label": pa.array(ids),
             "is_node": pa.array(np.ones(ids.size, dtype=np.int64))}
        )

    labels = nodes_ds.map_batches(
        init_labels, batch_format="pyarrow"
    ).materialize()

    def sym(t: pa.Table) -> pa.Table:
        a = t[edge_a].to_numpy(zero_copy_only=False)
        b = t[edge_b].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
            }
        )

    # edge_pairs is already materialized for the count: reuse it, never
    # re-execute the (possibly expensive) upstream pair pipeline
    edges = edge_pairs.map_batches(sym, batch_format="pyarrow").materialize()

    def label_sum(ds) -> int:
        return ds.sum("label") or 0

    prev = label_sum(labels)
    for _ in range(max_rounds):
        # propagate: each edge (src,dst) offers label(src) to dst
        offered = (
            join(
                edges,
                labels.map_batches(
                    lambda t: pa.table({"src": t["node"], "label": t["label"]}),
                    batch_format="pyarrow",
                ),
                "inner", on=("src",), num_partitions=num_partitions,
            )
            .map_batches(
                lambda t: pa.table(
                    {"node": t["dst"], "label": t["label"],
                     "is_node": pa.array(
                         np.zeros(len(t), dtype=np.int64)
                     )}
                ),
                batch_format="pyarrow",
            )
        )
        labels = group_agg(
            labels.union(offered), "node",
            {"label": ("min", "label"), "is_node": ("max", "is_node")},
        ).materialize()
        # pointer jump (shortcutting): label ← label(label). Every label
        # value is itself a labeled row after round 1 (edges are
        # symmetrized, so every endpoint appears as a dst), and
        # label(L) ≤ L by monotonicity — chain distances halve per round.
        # left_outer + coalesce keeps the row if a label id has no row yet
        # (possible only in round 1 for isolated self-labels).
        as_parent = labels.map_batches(
            lambda t: pa.table({"plabel": t["node"], "label2": t["label"]}),
            batch_format="pyarrow",
        )
        jumped = join(
            labels.map_batches(
                lambda t: pa.table({"node": t["node"], "plabel": t["label"],
                                    "is_node": t["is_node"]}),
                batch_format="pyarrow",
            ),
            as_parent, "left_outer", on=("plabel",),
            num_partitions=num_partitions,
        )

        def shortcut(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": t["node"],
                "label": pc.coalesce(t["label2"], t["plabel"]).cast(
                    pa.int64()),
                "is_node": t["is_node"],
            })

        labels = jumped.map_batches(shortcut,
                                    batch_format="pyarrow").materialize()
        if round_counter is not None:
            round_counter.append(1)
        cur = label_sum(labels)
        if cur == prev:
            break
        prev = cur
    else:
        raise RuntimeError(f"connected_components: no fixpoint in {max_rounds} rounds")

    def rename(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.equal(t["is_node"], pa.scalar(1, pa.int64())))
        return pa.table({node_col: keep["node"], "component": keep["label"]})

    return labels.map_batches(rename, batch_format="pyarrow")


def _cc_broadcast(nodes_ds, edge_pairs, node_col: str, edge_a: str,
                  edge_b: str):
    """Small-edge-set plan: driver-side union-find over the collected
    edges, node→root map broadcast once (``runtime.broadcast``), applied
    per batch with a sorted-array lookup. The NODE stream never
    materializes (the only driver-side collection is the edge-endpoint ∩
    node-id set, which is bounded by the edge count, not the node count).

    Component ids are NODE-VALUED and plan-independent (ADVICE r2 #1):
    union-find roots range over ALL edge endpoints, including endpoints
    outside ``nodes_ds`` (which act as relays, exactly as they do in the
    distributed plan) — each root is remapped to the minimum id of the
    component's members that ARE nodes, so ``dedup_clusters``'s
    ``is_representative = (node == component)`` always marks exactly one
    row per cluster."""
    batches = list(edge_pairs.iter_batches(batch_format="pyarrow"))
    edges_t = pa.concat_tables(batches) if batches else None
    if edges_t is None or edges_t.num_rows == 0:
        mapped_keys = np.empty(0, dtype=np.int64)
        mapped_roots = np.empty(0, dtype=np.int64)
    else:
        a = edges_t[edge_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = edges_t[edge_b].to_numpy(zero_copy_only=False).astype(np.int64)
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:  # path compression
                parent[x], x = root, parent[x]
            return root

        for ai, bi in zip(a.tolist(), b.tolist()):
            ra, rb = find(ai), find(bi)
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
        touched = np.unique(np.concatenate([a, b]))
        roots = np.array([find(int(x)) for x in touched], dtype=np.int64)
        # which touched endpoints are REAL nodes: one streamed pass over the
        # node Dataset, each batch intersected against the (small) touched
        # set — driver collects at most |touched| ids
        touched_here = broadcast(touched)

        def hits(t: pa.Table) -> pa.Table:
            tt = touched_here()
            ids = t[node_col].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.clip(np.searchsorted(tt, ids), 0, tt.size - 1)
            return pa.table({"node": pa.array(ids[tt[pos] == ids])})

        node_hits = [
            b["node"].to_numpy(zero_copy_only=False)
            for b in nodes_ds.map_batches(
                hits, batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow")
            if b.num_rows and "node" in b.column_names
        ]
        node_touched = (
            np.unique(np.concatenate(node_hits))
            if node_hits else np.empty(0, dtype=np.int64)
        )
        # min node-valued member per root, then remap every endpoint's root
        is_node = np.isin(touched, node_touched)
        nr, nid = roots[is_node], touched[is_node]
        order = np.lexsort((nid, nr))
        uroots, first = np.unique(nr[order], return_index=True)
        min_node = nid[order][first]
        pos = np.clip(np.searchsorted(uroots, roots), 0, max(uroots.size - 1, 0))
        has_node = uroots.size > 0
        hit = uroots[pos] == roots if has_node else np.zeros(roots.size, bool)
        # components with no node member can never be assigned to a node row
        # (any node endpoint is a node member of its own component); fall
        # back to the endpoint's own id just to keep the map total
        mapped_keys = touched
        mapped_roots = np.where(hit, min_node[pos] if has_node else roots, touched)
    root_map = broadcast((mapped_keys, mapped_roots))

    def assign(t: pa.Table) -> pa.Table:
        keys, roots = root_map()
        ids = t[node_col].to_numpy(zero_copy_only=False)
        comp = ids.copy()
        if keys.size:
            pos = np.clip(np.searchsorted(keys, ids), 0, keys.size - 1)
            hit = keys[pos] == ids
            comp = np.where(hit, roots[pos], ids)
        return pa.table({node_col: pa.array(ids), "component": pa.array(comp)})

    return nodes_ds.map_batches(assign, batch_format="pyarrow")


def dedup_clusters(
    docs_ds,
    pairs_ds,
    id_col: str = "doc_id",
    num_partitions: int | None = None,
):
    """Near-dup clustering: every doc labeled with its component's min id
    (its own id if it has no near-duplicates). Output:
    ``(doc_id, cluster_id, is_representative)`` — downstream dedup keeps
    rows where ``is_representative``.
    """
    import pyarrow.compute as pc

    def nodes(t: pa.Table) -> pa.Table:
        return pa.table({"node": t[id_col]})

    cc = connected_components(
        docs_ds.map_batches(nodes, batch_format="pyarrow"),
        pairs_ds,
        num_partitions=num_partitions,
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t["node"],
                "cluster_id": t["component"],
                "is_representative": pc.equal(t["node"], t["component"]),
            }
        )

    return cc.map_batches(fin, batch_format="pyarrow")

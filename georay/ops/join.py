"""Cell-keyed spatial equi-joins (SURVEY.md §2.5 N4).

Two physical strategies, chosen by side size:

- :func:`broadcast_cell_join` — the small side is ``ray.put`` ONCE as sorted
  numpy arrays; every map_batches task binary-searches it per batch. No
  shuffle at all; the right choice whenever one side fits in a worker heap
  (dimension tables, tile sets). This is the 100 TB-scale default for
  point×polygon-table joins.
- :func:`shuffle_cell_join` — both sides large: :func:`georay.runtime.join`
  (both sides hash-bucketed on the cell key, exchanged by Ray's task-based
  sort, joined per bucket by pyarrow; no actors). Use
  ``georay.runtime.salt_hot_keys`` first when the key distribution is
  skewed (dense urban cells).

Ray's own ``Dataset.join`` is not used: it starts hash-shuffle aggregator
actors on every call. On a 1-core host with 2 logical Ray CPUs the
benchmark's ``spatial_join_shuffle`` (15k × 1k rows) took 2.5 s per call
that way (median of 10 runs; 0.51 s through ``runtime.join``), where its
broadcast twin took 0.17 s.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay.runtime import by_key, check_saltable, group_agg, join, per_key


class _SortedLookup:
    """Immutable sorted-key multimap over a pyarrow table, built once."""

    def __init__(self, table: pa.Table, key_col: str):
        keys = table[key_col].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.table = table.take(pa.array(order))

    def match(self, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(probe_idx, right_row_idx) pairs for every key match — vectorized
        range-expand, no Python row loop."""
        lo = np.searchsorted(self.keys, probe, side="left")
        hi = np.searchsorted(self.keys, probe, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        probe_idx = np.repeat(np.arange(probe.shape[0]), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        right_idx = np.arange(total) - starts + np.repeat(lo, counts)
        return probe_idx, right_idx


def broadcast_cell_join(
    left_ds,
    right_table: pa.Table,
    on: str = "cell",
    right_on: str | None = None,
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    concurrency=None,
):
    """Inner equi-join: big Dataset × small in-memory table, broadcast once.

    ``right_table`` is shipped to the object store a single time via
    ``ray.put``; each worker process materializes the sorted lookup once
    (per-process cache) — stateless tasks by default, or an actor pool when
    ``concurrency`` is given.
    """
    import ray

    from georay.runtime import per_process

    right_on = right_on or on
    if right_cols is not None:
        keep = list(dict.fromkeys([right_on] + right_cols))
        right_table = right_table.select(keep)
    right_ref = ray.put(right_table)
    key = right_ref.hex()

    def join_batch(lookup: _SortedLookup, t: pa.Table) -> pa.Table:
        if left_cols is not None:
            t = t.select(list(dict.fromkeys([on] + left_cols)))
        probe = t[on].to_numpy(zero_copy_only=False)
        li, ri = lookup.match(probe)
        left_part = t.take(pa.array(li))
        right_part = lookup.table.take(pa.array(ri))
        cols = {name: left_part[name] for name in left_part.column_names}
        for name in right_part.column_names:
            if name == right_on and right_on == on:
                continue
            out_name = name if name not in cols else f"{name}_r"
            cols[out_name] = right_part[name]
        return pa.table(cols)

    if concurrency is None:

        def fn(t: pa.Table) -> pa.Table:
            lookup = per_process(
                key, lambda: _SortedLookup(ray.get(right_ref), right_on)
            )
            return join_batch(lookup, t)

        return left_ds.map_batches(fn, batch_format="pyarrow")

    class Joiner:
        def __init__(self):
            self.lookup = _SortedLookup(ray.get(right_ref), right_on)

        def __call__(self, t: pa.Table) -> pa.Table:
            return join_batch(self.lookup, t)

    return left_ds.map_batches(
        Joiner, batch_format="pyarrow", concurrency=concurrency
    )


def shuffle_cell_join(
    left_ds,
    right_ds,
    on: str = "cell",
    num_partitions: int | None = None,
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    join_type: str = "inner",
):
    """Equi-join of two large Datasets on the cell key (``runtime.join``;
    ``num_partitions=None`` → ``runtime.adaptive_partitions()``).

    ``join_type``: inner / left_outer / right_outer / full_outer."""
    if left_cols is not None:
        left_ds = left_ds.select_columns(list(dict.fromkeys([on] + left_cols)))
    if right_cols is not None:
        right_ds = right_ds.select_columns(list(dict.fromkeys([on] + right_cols)))
    return join(left_ds, right_ds, join_type, on=(on,), right_suffix="_r",
                num_partitions=num_partitions)


def salted_shuffle_join(
    left_ds,
    right_ds,
    hot_keys,
    on: str = "cell",
    n_salt: int = 8,
    num_partitions: int | None = None,
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
):
    """Skew-hardened hash join (SURVEY.md §4 skew row): hot join keys are
    salted on the LEFT (rows spread over ``key*n_salt + salt`` sub-keys) and
    REPLICATED ``n_salt``× on the RIGHT, so a dense cell's rows land on
    ``n_salt`` reducers instead of one. Cold keys map to ``key*n_salt``
    unchanged. Output rows carry the original (unsalted) key — row counts
    are exactly those of the plain join.
    """
    hot = np.sort(np.unique(np.asarray(hot_keys)))

    if left_cols is not None:
        left_ds = left_ds.select_columns(list(dict.fromkeys([on] + left_cols)))
    if right_cols is not None:
        right_ds = right_ds.select_columns(list(dict.fromkeys([on] + right_cols)))


    def replicate_right(t: pa.Table) -> pa.Table:
        key = t[on].to_numpy(zero_copy_only=False)
        check_saltable(key, n_salt)
        is_hot = np.isin(key, hot)
        # cold rows once at salt 0; hot rows replicated across all salts
        reps = np.where(is_hot, n_salt, 1)
        idx = np.repeat(np.arange(key.shape[0]), reps)
        base = t.take(pa.array(idx))
        # vectorized 0..r-1 per row (range-expand idiom, no Python loop)
        total = int(reps.sum())
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        salts = np.arange(total, dtype=np.int64) - starts
        salted = key[idx] * n_salt + salts
        return base.append_column("_sk", pa.array(salted))

    from georay.runtime import salt_hot_keys

    joined = (
        join(salt_hot_keys(left_ds, on, hot, n_salt=n_salt, salted_col="_sk"),
             right_ds.map_batches(replicate_right, batch_format="pyarrow"),
             "inner", on=("_sk",), left_suffix="_l", right_suffix="_r",
             num_partitions=num_partitions)
    )

    def unsalt(t: pa.Table) -> pa.Table:
        drop = [c for c in ("_sk", f"{on}_r") if c in t.column_names]
        out = t.drop_columns(drop)
        if f"{on}_l" in out.column_names:
            out = out.rename_columns(
                [on if c == f"{on}_l" else c for c in out.column_names]
            )
        return out

    return joined.map_batches(unsalt, batch_format="pyarrow")


def broadcast_semi_join(ds, keys, on: str, anti: bool = False):
    """Semi / anti join: the key SET is broadcast once (ray.put) and each
    batch filters with a sorted-array membership test — no shuffle. When
    the key set itself is too large to broadcast (10^10+ keys), use
    :func:`bloom_semi_join`: a fixed-size Bloom bitset broadcast with the
    same stage shape plus an exact-verify band for the false positives."""
    import numpy as np
    import ray

    keys_ref = ray.put(np.sort(np.unique(np.asarray(keys))))

    def fn(t: pa.Table) -> pa.Table:
        kset = ray.get(keys_ref)
        probe = t[on].to_numpy(zero_copy_only=False)
        if kset.size == 0:  # empty key set: semi -> nothing, anti -> all
            hit = np.zeros(probe.shape[0], dtype=bool)
        else:
            pos = np.clip(np.searchsorted(kset, probe), 0, kset.size - 1)
            hit = kset[pos] == probe
        keep = ~hit if anti else hit
        return t.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------------ Bloom semi-join

_U64 = np.uint64
_MASK64 = _U64(0xFFFFFFFFFFFFFFFF)


def _splitmix(x: np.ndarray, c1: int, c2: int) -> np.ndarray:
    """Vectorized splitmix64-style finalizer (public-domain mixing
    constants) — avalanches int64 keys so sequential ids don't cluster."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> _U64(30))) * _U64(c1)
        x = (x ^ (x >> _U64(27))) * _U64(c2)
        return x ^ (x >> _U64(31))


def bloom_positions(keys: np.ndarray, n_bits: int, n_hashes: int) -> np.ndarray:
    """(n, n_hashes) bit positions via double hashing h1 + i·h2 mod m."""
    x = np.asarray(keys).astype(np.int64).view(_U64)
    with np.errstate(over="ignore"):
        h1 = _splitmix(x + _U64(0x9E3779B97F4A7C15),
                       0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
        h2 = _splitmix(x ^ _U64(0xD6E8FEB86659FD93),
                       0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53) | _U64(1)
        i = np.arange(n_hashes, dtype=_U64)
        return ((h1[:, None] + i[None, :] * h2[:, None]) % _U64(n_bits)).astype(
            np.int64
        )


def _batch_bloom_bits(keys: np.ndarray, n_bits: int, n_hashes: int) -> np.ndarray:
    bits = np.zeros(n_bits // 8, dtype=np.uint8)
    pos = bloom_positions(keys, n_bits, n_hashes).reshape(-1)
    np.bitwise_or.at(bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
    return bits


def build_bloom(keys_ds, col: str, n_bits: int = 1 << 23, n_hashes: int = 4,
                chunk_bytes: int = 1 << 16,
                driver_or_bytes: int = 1 << 22) -> np.ndarray:
    """Distributed Bloom-bitset build over a key Dataset — the key column
    never collects to the driver. Each batch sets its bits locally and
    emits only its NONZERO ``chunk_bytes``-sized bitset chunks as
    ``(chunk_id, blob)`` rows; a per-chunk groupby ORs them; the driver
    assembles the fixed-size bitset from at most ``n_bits/8/chunk_bytes``
    reduced rows. ``n_bits`` must be a multiple of ``8 * chunk_bytes``.

    Small bitsets (``n_bits/8 <= driver_or_bytes``) skip the chunk groupby
    and OR the per-batch partials on the driver as they stream in — the
    driver traffic is bounded by batches x bitset size, which at 4 MiB is
    cheaper than an all-to-all exchange. The shuffle path only engages for
    bitsets too large to absorb driver-side (the 10^10-key regime)."""
    if n_bits % (8 * chunk_bytes):
        raise ValueError("n_bits must be a multiple of 8*chunk_bytes")

    def partial(t: pa.Table) -> pa.Table:
        keys = t[col].to_numpy(zero_copy_only=False)
        bits = _batch_bloom_bits(keys, n_bits, n_hashes)
        chunks = bits.reshape(-1, chunk_bytes)
        nz = np.flatnonzero(chunks.any(axis=1))
        return pa.table(
            {
                "chunk_id": pa.array(nz.astype(np.int64)),
                "blob": pa.array([chunks[i].tobytes() for i in nz], pa.binary()),
            }
        )

    reduced = keys_ds.map_batches(partial, batch_format="pyarrow")
    bits = np.zeros(n_bits // 8, dtype=np.uint8)

    if n_bits // 8 <= driver_or_bytes:
        # driver-OR fast path: no shuffle, partial chunks OR'd as they arrive
        for b in reduced.iter_batches(batch_format="pyarrow"):
            if b.num_rows == 0 or "chunk_id" not in b.column_names:
                continue
            for cid, blob in zip(b["chunk_id"].to_pylist(),
                                 b["blob"].to_pylist()):
                s = cid * chunk_bytes
                bits[s : s + chunk_bytes] |= np.frombuffer(blob, dtype=np.uint8)
        return bits

    def orit(g: pa.Table) -> pa.Table:
        acc = np.zeros(chunk_bytes, dtype=np.uint8)
        for b in g["blob"].to_pylist():
            acc |= np.frombuffer(b, dtype=np.uint8)
        return pa.table({"chunk_id": [g["chunk_id"][0].as_py()],
                         "blob": pa.array([acc.tobytes()], pa.binary())})

    reduced = by_key(reduced, "chunk_id", per_key("chunk_id", orit),
                     pa.schema([("chunk_id", pa.int64()),
                                ("blob", pa.binary())]))
    for b in reduced.iter_batches(batch_format="pyarrow"):
        for cid, blob in zip(b["chunk_id"].to_pylist(), b["blob"].to_pylist()):
            s = cid * chunk_bytes
            bits[s : s + chunk_bytes] = np.frombuffer(blob, dtype=np.uint8)
    return bits


def bloom_semi_join(ds, keys_ds, on: str, right_on: str | None = None,
                    anti: bool = False, n_bits: int = 1 << 23,
                    n_hashes: int = 4, num_partitions: int | None = None,
                    exact: bool = True):
    """Semi / anti join against a key set too large to broadcast raw.

    The fixed-size Bloom bitset (``n_bits/8`` bytes regardless of key
    count) is built distributed and broadcast ONCE; every batch classifies
    rows as definite-miss (Bloom never false-negatives) or candidate.
    Misses resolve immediately — dropped for semi, kept for anti. With
    ``exact=True`` (default) the candidate band — true hits plus the small
    false-positive fraction — is verified with a hash join against the
    deduped key Dataset, making the result EXACT for both semi and anti.
    ``exact=False`` skips the verify shuffle and returns Bloom-superset
    semantics: semi keeps (anti drops) candidates unverified — a documented
    superset (subset) containing false positives at the Bloom's FPR.

    At 10^10 keys and 10 bits/key the broadcast is ~12 GB of bitset versus
    ~80 GB of raw keys, and only the candidate band — not the full probe
    table — pays the exact-verify shuffle."""
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    import ray

    right_on = right_on or on
    bits = build_bloom(
        keys_ds, right_on, n_bits=n_bits, n_hashes=n_hashes,
        chunk_bytes=min(1 << 16, n_bits // 8),
    )
    bits_ref = ray.put(bits)

    def classify(t: pa.Table, want_candidates: bool) -> pa.Table:
        bb = ray.get(bits_ref)
        probe = t[on].to_numpy(zero_copy_only=False)
        pos = bloom_positions(probe, n_bits, n_hashes)
        hit = (
            (bb[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
        ).all(axis=1)
        return t.filter(pa.array(hit if want_candidates else ~hit))

    candidates = ds.map_batches(
        lambda t: classify(t, True), batch_format="pyarrow", zero_copy_batch=True
    )
    if not exact:
        if anti:
            return ds.map_batches(
                lambda t: classify(t, False), batch_format="pyarrow",
                zero_copy_batch=True,
            )
        return candidates

    # exact verify band: hash-join candidates against the deduped key set
    # (``__hit`` is non-null on every key row: the left join's match flag)
    marker = group_agg(
        keys_ds.map_batches(lambda t: pa.table({on: t[right_on]}),
                            batch_format="pyarrow"),
        on, {"__hit": ("count", None)},
    )
    joined = join(candidates, marker, "left_outer", on=(on,),
                  num_partitions=num_partitions)

    def resolve(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        member = pc.is_valid(t["__hit"])
        keep = pc.invert(member) if anti else member
        return t.filter(keep).drop_columns(["__hit"])

    verified = joined.map_batches(resolve, batch_format="pyarrow")
    if not anti:
        return verified
    misses = ds.map_batches(
        lambda t: classify(t, False), batch_format="pyarrow", zero_copy_batch=True
    )
    return misses.union(verified)


def box_overlap_join(
    a_ds,
    b_ds,
    cell_size: int,
    nx: int,
    ny: int,
    a_id: str = "a_id",
    b_id: str = "b_id",
    num_partitions: int | None = None,
    emit_area: bool = True,
    coalesce: int | None = None,
):
    """Spatial join of EXTENDED objects: all (a, b) box pairs whose CLOSED
    integer rectangles overlap. Inputs carry ``<id>, x0, y0, x1, y1``
    (int64 grid units, 0 <= x <= nx·cell_size).

    ``coalesce``: repartition both exploded sides to this many blocks
    before the exchange — shuffle cost scales with block count (CLAUDE.md),
    so small inputs read as many tiny blocks should set it; huge inputs
    already carry full blocks and leave it None.

    Plan: each box flat-maps to the grid cells its rectangle overlaps
    (``(x1-x0)/cell_size``-bounded, offsets idiom), the sides hash-join on
    the cell, and the exact closed-overlap filter runs per batch. A pair
    overlapping many shared cells is emitted EXACTLY ONCE with zero dedup
    shuffle — the REPORT-ONCE trick: only the unique cell containing the
    intersection's min corner ``(max(ax0,bx0) // s, max(ay0,by0) // s)``
    reports the pair (that cell is always in both covers). All arithmetic
    int64 → the SQL inequality-join twin is bit-exact.

    Output: ``a_id, b_id`` (+ ``inter_area`` int64 when ``emit_area``).
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    s = np.int64(cell_size)

    def explode(prefix: str, id_col: str):
        def fn(t: pa.Table) -> pa.Table:
            x0 = t["x0"].to_numpy(zero_copy_only=False).astype(np.int64)
            y0 = t["y0"].to_numpy(zero_copy_only=False).astype(np.int64)
            x1 = t["x1"].to_numpy(zero_copy_only=False).astype(np.int64)
            y1 = t["y1"].to_numpy(zero_copy_only=False).astype(np.int64)
            cx_lo, cx_hi = x0 // s, np.minimum(x1 // s, np.int64(nx - 1))
            cy_lo, cy_hi = y0 // s, np.minimum(y1 // s, np.int64(ny - 1))
            w = cx_hi - cx_lo + 1
            h = cy_hi - cy_lo + 1
            counts = w * h
            total = int(counts.sum())
            row = np.repeat(np.arange(x0.size, dtype=np.int64), counts)
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            local = np.arange(total, dtype=np.int64) - starts
            cx = cx_lo[row] + local // h[row]
            cy = cy_lo[row] + local % h[row]
            ids = t[id_col].to_numpy(zero_copy_only=False)[row]
            return pa.table(
                {
                    f"{prefix}id": pa.array(ids),
                    f"{prefix}x0": pa.array(x0[row]),
                    f"{prefix}y0": pa.array(y0[row]),
                    f"{prefix}x1": pa.array(x1[row]),
                    f"{prefix}y1": pa.array(y1[row]),
                    "cell": pa.array(cx * np.int64(ny) + cy),
                }
            )

        return fn

    left = a_ds.map_batches(explode("a_", a_id), batch_format="pyarrow",
                            zero_copy_batch=True)
    right = b_ds.map_batches(explode("b_", b_id), batch_format="pyarrow",
                             zero_copy_batch=True)
    if coalesce is not None:
        left = left.repartition(coalesce)
        right = right.repartition(coalesce)
    joined = join(left, right, "inner", on=("cell",), left_suffix="_l",
                  right_suffix="_r", num_partitions=num_partitions)

    def overlap_once(t: pa.Table) -> pa.Table:
        ax0 = t["a_x0"].to_numpy(zero_copy_only=False)
        ay0 = t["a_y0"].to_numpy(zero_copy_only=False)
        ax1 = t["a_x1"].to_numpy(zero_copy_only=False)
        ay1 = t["a_y1"].to_numpy(zero_copy_only=False)
        bx0 = t["b_x0"].to_numpy(zero_copy_only=False)
        by0 = t["b_y0"].to_numpy(zero_copy_only=False)
        bx1 = t["b_x1"].to_numpy(zero_copy_only=False)
        by1 = t["b_y1"].to_numpy(zero_copy_only=False)
        cell = t["cell"].to_numpy(zero_copy_only=False)
        ix0 = np.maximum(ax0, bx0)
        iy0 = np.maximum(ay0, by0)
        ix1 = np.minimum(ax1, bx1)
        iy1 = np.minimum(ay1, by1)
        overlap = (ix0 <= ix1) & (iy0 <= iy1)
        owner = (np.minimum(ix0 // s, np.int64(nx - 1)) * np.int64(ny)
                 + np.minimum(iy0 // s, np.int64(ny - 1)))
        keep = overlap & (owner == cell)
        cols = {
            "a_id": t["a_id"].filter(pa.array(keep)),
            "b_id": t["b_id"].filter(pa.array(keep)),
        }
        if emit_area:
            cols["inter_area"] = pa.array(
                ((ix1 - ix0) * (iy1 - iy0))[keep].astype(np.int64)
            )
        return pa.table(cols)

    out = joined.map_batches(overlap_once, batch_format="pyarrow",
                             zero_copy_batch=True)

    def rename(t: pa.Table) -> pa.Table:
        names = [a_id, b_id] + (["inter_area"] if emit_area else [])
        return t.rename_columns(names)

    return out.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def segment_crossings(ds, id_col: str, x1: str, y1: str, x2: str, y2: str,
                      cell_shift: int = 3, num_partitions: int | None = None):
    """Segment-intersection join on INTEGER endpoint coordinates: all
    unordered pairs of segments that PROPERLY cross (strict orientation
    sign tests — touching endpoints and collinear overlaps excluded), the
    GIS overlay primitive (SURVEY.md §2.5 N4 extended to 1-D objects).

    Exact end to end: candidates come from a bounding-box cell cover
    (grid cell = coords >> ``cell_shift``; an intersection point lies in
    both segments' bboxes, so every crossing pair shares ≥1 cover cell —
    completeness by construction), the refine is four int64 cross-product
    signs (no floats, no epsilon), and duplicate reports from multi-cell
    overlaps collapse in a pair-key ``group_agg`` that sees only the
    surviving (a, b) int pairs — never O(n²) and never the geometry.

    Ids must fit 31 bits (pair key packs a*2³¹+b).
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    def scatter(t: pa.Table) -> pa.Table:
        sid = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ax1 = t[x1].to_numpy(zero_copy_only=False).astype(np.int64)
        ay1 = t[y1].to_numpy(zero_copy_only=False).astype(np.int64)
        ax2 = t[x2].to_numpy(zero_copy_only=False).astype(np.int64)
        ay2 = t[y2].to_numpy(zero_copy_only=False).astype(np.int64)
        cx0 = np.minimum(ax1, ax2) >> cell_shift
        cx1_ = np.maximum(ax1, ax2) >> cell_shift
        cy0 = np.minimum(ay1, ay2) >> cell_shift
        cy1_ = np.maximum(ay1, ay2) >> cell_shift
        w = cx1_ - cx0 + 1
        h = cy1_ - cy0 + 1
        counts = w * h
        total = int(counts.sum())
        row = np.repeat(np.arange(sid.size), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        o = np.arange(total) - starts[row]
        ox = o % w[row]
        oy = o // w[row]
        cell = (cx0[row] + ox) * (1 << 24) + (cy0[row] + oy)
        return pa.table({
            "cell": cell, "sid": sid[row],
            "sx1": ax1[row], "sy1": ay1[row],
            "sx2": ax2[row], "sy2": ay2[row],
        })

    left = ds.map_batches(scatter, batch_format="pyarrow",
                          zero_copy_batch=True)

    def as_right(t: pa.Table) -> pa.Table:
        return pa.table({"cell": t["cell"], "tid": t["sid"],
                         "tx1": t["sx1"], "ty1": t["sy1"],
                         "tx2": t["sx2"], "ty2": t["sy2"]})

    right = left.map_batches(as_right, batch_format="pyarrow",
                             zero_copy_batch=True)
    cand = join(left, right, "inner", on=("cell",),
                num_partitions=num_partitions)

    def refine(t: pa.Table) -> pa.Table:
        a = t["sid"].to_numpy(zero_copy_only=False)
        b = t["tid"].to_numpy(zero_copy_only=False)
        m = a < b
        if not m.any():
            return pa.table({"pk": np.empty(0, dtype=np.int64)})
        p1x = t["sx1"].to_numpy(zero_copy_only=False)[m]
        p1y = t["sy1"].to_numpy(zero_copy_only=False)[m]
        p2x = t["sx2"].to_numpy(zero_copy_only=False)[m]
        p2y = t["sy2"].to_numpy(zero_copy_only=False)[m]
        q1x = t["tx1"].to_numpy(zero_copy_only=False)[m]
        q1y = t["ty1"].to_numpy(zero_copy_only=False)[m]
        q2x = t["tx2"].to_numpy(zero_copy_only=False)[m]
        q2y = t["ty2"].to_numpy(zero_copy_only=False)[m]

        def orient(ox, oy, axx, ayy, bxx, byy):
            return np.sign((axx - ox) * (byy - oy) - (ayy - oy) * (bxx - ox))

        d1 = orient(p1x, p1y, p2x, p2y, q1x, q1y)
        d2 = orient(p1x, p1y, p2x, p2y, q2x, q2y)
        d3 = orient(q1x, q1y, q2x, q2y, p1x, p1y)
        d4 = orient(q1x, q1y, q2x, q2y, p2x, p2y)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        return pa.table({"pk": a[m][hit] * (np.int64(1) << 31) + b[m][hit]})

    pairs = group_agg(
        cand.map_batches(refine, batch_format="pyarrow", zero_copy_batch=True),
        "pk",
    )

    def unpack(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        return pa.table({"a": pk >> 31, "b": pk & ((np.int64(1) << 31) - 1)})

    return pairs.map_batches(unpack, batch_format="pyarrow",
                             zero_copy_batch=True)

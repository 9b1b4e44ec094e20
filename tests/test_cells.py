"""Hierarchy op tests (SURVEY.md §2.5 N1)."""

from __future__ import annotations

import numpy as np
import pytest

from georay import cells, codec


def test_parent_child_roundtrip():
    rng = np.random.RandomState(1)
    lon = rng.uniform(-180, 180, 500)
    lat = rng.uniform(-90, 90, 500)
    fine = codec.encode(lon, lat, 20)
    parents = cells.cell_to_parent(fine, 20, 16)
    kids = cells.cell_to_children(parents, 16, 20)
    assert kids.shape == (500, 16)
    # each fine cell is among its parent's children
    assert np.all((kids == fine[:, None]).any(axis=1))
    # parent of every child is the parent
    back = cells.cell_to_parent(kids.reshape(-1), 20, 16).reshape(500, 16)
    assert np.all(back == parents[:, None])


def test_k_ring_matches_neighbors():
    rng = np.random.RandomState(2)
    lon = rng.uniform(-170, 170, 100)
    lat = rng.uniform(-80, 80, 100)
    code = codec.encode(lon, lat, 16)
    ring, valid = cells.k_ring(code, 16, 1)
    assert ring.shape == (100, 9)
    assert valid.all()
    nbrs, nvalid = codec.neighbors(code, 16)
    for i in range(100):
        assert set(ring[i].tolist()) == set(nbrs[i].tolist()) | {int(code[i])}


def test_k_ring_counts():
    code = codec.encode(np.array([0.0]), np.array([0.0]), 16)
    for k in (1, 2, 3):
        ring, valid = cells.k_ring(code, 16, k)
        assert ring.shape[1] == (2 * k + 1) ** 2
        assert valid.all()
        assert np.unique(ring[0]).size == (2 * k + 1) ** 2


def test_compact_full_quad():
    # all 4 children of a parent collapse to the parent
    parent = np.array([0b1011], dtype=np.uint64)
    kids = cells.cell_to_children(parent, 4, 6).reshape(-1)
    out, out_bits = cells.compact(kids, 6)
    assert out.size == 1 and out_bits[0] == 4 and out[0] == parent[0]


def test_compact_partial():
    parent = np.array([0b1011], dtype=np.uint64)
    kids = cells.cell_to_children(parent, 4, 6).reshape(-1)[:3]  # one missing
    out, out_bits = cells.compact(kids, 6)
    assert out.size == 3 and np.all(out_bits == 6)


def test_compact_multilevel():
    # 16 grandchildren of one cell collapse two levels
    top = np.array([0b10], dtype=np.uint64)
    kids = cells.cell_to_children(top, 2, 6).reshape(-1)
    out, out_bits = cells.compact(kids, 6)
    assert out.size == 1 and out_bits[0] == 2 and out[0] == top[0]


def test_uncompact_inverse():
    rng = np.random.RandomState(3)
    lon = rng.uniform(-180, 180, 64)
    lat = rng.uniform(-90, 90, 64)
    fine = np.unique(codec.encode(lon, lat, 12))
    out, out_bits = cells.compact(fine, 12)
    # uncompact back to 12 bits must be a superset-free exact cover of the
    # compacted regions; any original cell is included
    expanded = cells.uncompact(out, out_bits, 12)
    assert np.all(np.isin(fine, expanded))
    assert np.unique(expanded).size == expanded.size


def test_compact_dataset(ray_session):
    import ray

    import pyarrow as pa

    parent = np.array([0b101100, 0b101101], dtype=np.uint64)
    kids = cells.cell_to_children(parent, 6, 12).reshape(-1)  # 2*64 cells
    lone = np.array([7001], dtype=np.uint64)  # anchor 109, not a sibling
    all_cells = np.concatenate([kids, lone]).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"cell": all_cells}))
    out = cells.compact_dataset(ds, "cell", 12, step=2, anchor_bits=6).to_pandas()
    got = set(zip(out["cell"].astype(np.uint64), out["cell_bits"]))
    assert (int(parent[0]), 6) in got and (int(parent[1]), 6) in got
    assert (7001, 12) in got
    assert len(got) == 3


@pytest.mark.parametrize("p", [1, 4])
def test_compact_dataset_stops_at_anchor_bits(ray_session, monkeypatch, p):
    """A fully covered 4-bit parent: its 4 sibling 6-bit anchors compact
    to 4 anchor cells, never to the parent, whichever anchors share a
    ``by_key`` bucket (p=1 puts all four in one)."""
    import pyarrow as pa
    import ray

    from georay import runtime

    monkeypatch.setattr(runtime, "adaptive_partitions", lambda *a, **k: p)
    anchors = cells.cell_to_children(np.array([0b1011], np.uint64), 4, 6)
    kids = cells.cell_to_children(anchors.reshape(-1), 6, 12).reshape(-1)
    ds = ray.data.from_arrow(pa.table({"cell": kids.astype(np.int64)}))
    out = cells.compact_dataset(ds, "cell", 12, step=2, anchor_bits=6).to_pandas()
    got = sorted(zip(out["cell"].astype(np.uint64), out["cell_bits"]))
    assert got == [(int(a), 6) for a in sorted(anchors.reshape(-1))]


def test_compact_min_bits():
    kids = cells.cell_to_children(np.array([0b1011], np.uint64), 4, 8)
    out, out_bits = cells.compact(kids.reshape(-1), 8, min_bits=6)
    assert sorted(out.tolist()) == sorted(
        cells.cell_to_children(np.array([0b1011], np.uint64), 4, 6)
        .reshape(-1).tolist())
    assert set(out_bits.tolist()) == {6}
    out, out_bits = cells.compact(kids.reshape(-1), 8)
    assert out.tolist() == [0b1011] and out_bits.tolist() == [4]


def test_uncompact_dataset_roundtrip(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from georay import cells

    rng = np.random.RandomState(13)
    base = np.unique(rng.randint(0, 1 << 12, 3000).astype(np.int64))
    ds = ray.data.from_arrow(pa.table({"cell": base})).repartition(4)
    comp = cells.compact_dataset(ds, "cell", bits=12, step=2, anchor_bits=6)
    back = cells.uncompact_dataset(comp, target_bits=12).to_pandas()
    assert sorted(back["cell"]) == sorted(base.tolist())


def test_expand_ranges():
    assert codec.expand_ranges(np.empty(0, np.int64)).size == 0
    assert codec.expand_ranges(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0
    counts = np.array([2, 0, 3, 0], np.int64)  # rows with zero matches
    assert codec.expand_ranges(counts).tolist() == [0, 1, 0, 1, 2]
    lo = np.array([5, 9, 0, 4], np.int64)
    assert codec.expand_ranges(counts, lo).tolist() == [5, 6, 0, 1, 2]


def test_sorted_lookup_match():
    import pyarrow as pa

    keys = np.array([7, 3, 7, 1, 3, 7], np.int64)
    lookup = codec.SortedLookup(pa.table({"k": keys, "v": np.arange(6)}), "k")
    assert lookup.keys.tolist() == [1, 3, 3, 7, 7, 7]
    assert lookup.column("v").tolist() == [3, 1, 4, 0, 2, 5]  # stable
    pi, ri = lookup.match(np.empty(0, np.int64))
    assert pi.size == 0 and ri.size == 0
    pi, ri = lookup.match(np.array([2, 8], np.int64))  # no key matches
    assert pi.size == 0 and ri.size == 0
    pi, ri = lookup.match(np.array([7, 2, 3, 7], np.int64))
    assert pi.tolist() == [0, 0, 0, 2, 2, 3, 3, 3]
    assert np.all(np.diff(pi) >= 0)
    assert (lookup.keys[ri] == np.array([7, 2, 3, 7])[pi]).all()
    assert ri.tolist() == [3, 4, 5, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("bits,k", [(4, 2), (4, 1), (10, 1), (10, 3)])
def test_ring_probe(bits, k):
    qi, cell = cells.ring_probe(np.empty(0, np.uint64), bits, k)
    assert qi.size == 0 and cell.size == 0
    rng = np.random.RandomState(bits * 10 + k)
    code = codec.encode(rng.uniform(-180, 180, 60),
                        rng.uniform(-90, 90, 60), bits)
    code[:3] = codec.encode(np.array([0.0, 0.0, 0.0]),
                            np.array([-89.9, 89.9, 0.0]), bits)  # lat edges
    qi, cell = cells.ring_probe(code, bits, k)
    assert cell.dtype == np.int64
    assert np.all(np.diff(qi) >= 0)  # query-major
    ring, valid = cells.k_ring(code, bits, k)
    want = {(q, int(c)) for q in range(code.size)
            for c, ok in zip(ring[q], valid[q]) if ok}
    got = list(zip(qi.tolist(), cell.tolist()))
    assert len(got) == len(set(got))  # a wrapping ring gives each cell once
    assert set(got) == want
    # within a query, cells keep their first ring position
    for q in (0, 1, 2):
        first = list(dict.fromkeys(int(c) for c, ok in zip(ring[q], valid[q]) if ok))
        assert cell[qi == q].tolist() == first


def test_ring_candidates_go_through_one_probe_and_kernel():
    import pathlib

    root = pathlib.Path(cells.__file__).parent
    expand, probe = [], []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent).as_posix()
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if "np.cumsum(counts) - counts" in line:
                expand.append(f"{rel}:{i}")
            if "cells.k_ring(" in line and rel.startswith("georay/ops/"):
                probe.append(f"{rel}:{i}")
    assert len(expand) == 1 and expand[0].startswith("georay/codec.py:"), (
        f"range-expand with codec.expand_ranges: {expand}"
    )
    assert not probe, f"ring candidates with cells.ring_probe: {probe}"

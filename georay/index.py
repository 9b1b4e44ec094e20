"""Cell-keyed inverted index over a partitioned Parquet layout.

Ray-Data-native replacement for the reference's UnQLite inverted index
(SURVEY.md §2.4 X1–X8: ``index.init_geohash/open_geohash``, ``GeoHash.update/
extend/keys/query/query_box``, ``storage.unqlite``, ``lock``): instead of a
single mutable KV file guarded by fcntl locks, records live in one Parquet
partition per coarse cell prefix, written via the checkpointed
``runtime.write_partitioned`` (shuffle ownership replaces locking — each
reducer owns its cells exclusively; manifest commits are atomic renames).

Queries prune at the partition level (only files whose prefix intersects the
requested cells/box are opened), then refine exactly on the cell column —
the distributed analogue of the reference's per-code KV lookups. A pruned
read that ``io.read_num_blocks`` sizes to one block (from the projected
columns' uncompressed bytes in the files' footers) runs in the driver with
pyarrow and is answered by ``io.one_block``, which starts no Ray task: on a
2-CPU node a Ray Data job cost ~100 ms per ring-1 lookup of one or two
~50 KB files, the pyarrow read ~3 ms.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from georay import cells as cells_mod
from georay import codec, runtime
from georay import io as gio

_PROPS = "_index.json"


def _add_prefix(t: pa.Table, cell_col: str, shift: int) -> pa.Table:
    cell = t[cell_col].to_numpy(zero_copy_only=False).astype(np.uint64)
    return t.append_column(
        "_prefix", pa.array((cell >> np.uint64(shift)).astype(np.int64))
    )


def _keyed(ds, cell_col: str, shift: int):
    """``ds`` plus the ``_prefix`` partition column (cell >> shift)."""
    return ds.map_batches(_add_prefix, batch_format="pyarrow",
                          fn_kwargs={"cell_col": cell_col, "shift": shift})


def _drop_prefix(t: pa.Table) -> pa.Table:
    return t.drop_columns(["_prefix"]) if "_prefix" in t.column_names else t


def _refine(t: pa.Table, cell_col: str, wanted: np.ndarray) -> pa.Table:
    """Rows whose cell is in ``wanted`` (sorted int64), minus ``_prefix``."""
    got = t[cell_col].to_numpy(zero_copy_only=False)
    return _drop_prefix(t.filter(pa.array(np.isin(got, wanted))))


class CellIndex:
    """Handle to an on-disk cell-partitioned index (open_geohash parity)."""

    def __init__(self, root: str):
        self.root = root
        try:
            with open(os.path.join(root, _PROPS)) as f:
                props = json.load(f)
        except FileNotFoundError:
            old = root.rstrip("/") + ".compact-old"
            if os.path.isdir(old):
                raise FileNotFoundError(
                    f"index missing at {root} but {old} exists: a compact() "
                    "crashed between its two renames — restore with "
                    f"`mv {old} {root}`"
                ) from None
            raise
        self.bits = props["bits"]
        self.prefix_bits = props["prefix_bits"]
        self.cell_col = props["cell_col"]

    # -------------------------------------------------------------- building

    @staticmethod
    def build(
        ds,
        root: str,
        bits: int,
        prefix_bits: int = 8,
        cell_col: str = "cell",
        resume: bool = True,
    ) -> "CellIndex":
        """init_geohash + update parity: shuffle records by cell prefix and
        write one partition file per prefix with a committed manifest."""
        os.makedirs(root, exist_ok=True)
        runtime.write_partitioned(
            _keyed(ds, cell_col, bits - prefix_bits), root, "_prefix",
            resume=resume, lineage=f"build bits={bits}",
        )
        props = {"bits": bits, "prefix_bits": prefix_bits, "cell_col": cell_col}
        tmp = os.path.join(root, _PROPS + ".tmp")
        with open(tmp, "w") as f:
            json.dump(props, f)
        os.replace(tmp, os.path.join(root, _PROPS))
        return CellIndex(root)

    def extend(self, ds) -> None:
        """extend parity: append new records for possibly-existing cells.
        Implemented as a fresh partition write into a fragment subdir; reads
        union all fragments (compaction = rebuild)."""
        frag = os.path.join(
            self.root,
            f"frag-{len([d for d in os.listdir(self.root) if d.startswith('frag-')])}",
        )
        runtime.write_partitioned(
            _keyed(ds, self.cell_col, self.bits - self.prefix_bits),
            frag,
            "_prefix",
            resume=False,
            lineage="extend",
        )

    def compact(self) -> None:
        """Merge ``extend()`` fragments back into the base partition layout
        (one file per prefix again — repeated extends otherwise degrade
        reads with one extra file per prefix per extend).

        Full union scan → fresh partitioned write into a sibling dir →
        two-rename directory swap. MAINTENANCE OPERATION, single-writer,
        NO CONCURRENT READERS: between the two renames the root briefly
        does not exist (POSIX cannot atomically swap directories), and a
        crash in that window leaves the previous layout at
        ``<root>.compact-old`` (CellIndex() then raises with the restore
        command). Run it like a rebuild, not like a query."""
        import shutil

        frags = [d for d in os.listdir(self.root) if d.startswith("frag-")]
        if not frags:
            return
        tmp = self.root.rstrip("/") + ".compact-tmp"
        old = self.root.rstrip("/") + ".compact-old"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(old, ignore_errors=True)
        runtime.write_partitioned(
            _keyed(self.scan(), self.cell_col, self.bits - self.prefix_bits),
            tmp,
            "_prefix",
            resume=False,
            lineage=f"compact of {len(frags)} fragments",
        )
        props = {"bits": self.bits, "prefix_bits": self.prefix_bits,
                 "cell_col": self.cell_col}
        with open(os.path.join(tmp, _PROPS), "w") as f:
            json.dump(props, f)
        os.rename(self.root, old)
        os.rename(tmp, self.root)
        shutil.rmtree(old)

    # -------------------------------------------------------------- querying

    def _partition_files(self, prefixes=None) -> list[str]:
        """Paths of the partition files (``part-<prefix>-<hash>.parquet``)
        in the base layout and each ``extend()`` fragment dir: every one,
        or those whose prefix is in the set ``prefixes``, matched on the
        name, so a path is built only for a file that is read."""
        roots = [self.root] + [
            os.path.join(self.root, d)
            for d in os.listdir(self.root)
            if d.startswith("frag-")
        ]
        names = None if prefixes is None else {f"part-{p}" for p in prefixes}
        return [os.path.join(r, f) for r in roots for f in os.listdir(r)
                if f.startswith("part-") and f.endswith(".parquet")
                and (names is None or f[:f.rfind("-")] in names)]

    def query_cells(self, cells: np.ndarray, columns=None,
                    expand_neighbors: bool = False, ring: int = 1):
        """X5 parity: records of exactly these cells — partition-pruned read
        + exact cell filter (vectorized isin). Returns a Dataset, or None
        when no partition file matches.

        A pruned read of one block — ``io.read_num_blocks`` of the
        projected columns' uncompressed bytes in the files' footers is 1
        (``io.read_one_block``) — runs in the driver with pyarrow and comes
        back as a materialized one-block Dataset (``io.one_block``) whose
        ``to_pandas`` keeps the typed columns when no row matches. Larger
        reads run as an ``io.read_parquet`` + refine map.

        ``expand_neighbors=True`` widens the request by the Chebyshev
        ``ring`` of surrounding cells first (the reference's border-
        tolerance query expansion, SURVEY.md X5 MUST-VERIFY: points near a
        cell edge live in a neighboring cell)."""
        cells = np.unique(np.asarray(cells, dtype=np.uint64))
        if expand_neighbors and cells.size:
            ring_cells, valid = cells_mod.k_ring(cells, self.bits, ring)
            cells = np.unique(ring_cells.reshape(-1)[valid.reshape(-1)])
        shift = self.bits - self.prefix_bits
        prefixes = set((cells >> np.uint64(shift)).astype(np.int64).tolist())
        files = self._partition_files(prefixes)
        if not files:
            return None
        if columns is not None:
            # the refine step needs the cell column; _prefix is dropped there
            columns = list(dict.fromkeys(list(columns) + [self.cell_col]))
            columns = [c for c in columns if c != "_prefix"]
        wanted = np.sort(cells.astype(np.int64))
        table, n = gio.read_one_block(files, columns)
        if table is not None:
            return gio.one_block(_refine(table, self.cell_col, wanted))
        ds = gio.read_parquet(files, columns, override_num_blocks=n)
        return ds.map_batches(
            _refine, batch_format="pyarrow",
            fn_kwargs={"cell_col": self.cell_col, "wanted": wanted},
        )

    def query_box(self, box: tuple, columns=None):
        """X6 parity: records of every cell intersecting the box cover —
        cover cells from grid arithmetic, then pruned read + refine."""
        cover = codec.bounding_boxes(box, self.bits)
        return self.query_cells(cover, columns)

    def keys(self) -> np.ndarray:
        """X4 parity: distinct cells present (sorted numpy array —
        ``Dataset.unique`` already collects to the driver in Ray)."""
        ds = self.scan([self.cell_col])
        if ds is None:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.asarray(ds.unique(self.cell_col), dtype=np.int64))

    def scan(self, columns=None):
        """X4 values()/items() parity: full index scan as a Dataset."""
        files = self._partition_files()
        if not files:
            return None
        return gio.read_parquet(files, columns).map_batches(
            _drop_prefix, batch_format="pyarrow"
        )

"""Pivot / crosstab: long (row_key, category) stream → wide per-key count
columns, one per pivot value (plus an overflow bucket).

The scale trick: rows are ALREADY WIDE — each row becomes one 0/1 column
per pivot value, so the single combine is a plain per-column sum over a
``group_agg`` keyed by the row key. No long (row, col, n) intermediate, no
second co-location shuffle to reassemble rows, and the output schema is
static (pivot values are declared up front — the standard pivot contract;
unlisted categories fold into ``n_other``). Rows with a null row key or
category are not counted.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from georay.runtime import group_agg


def pivot_counts(ds, row_col: str, col_col: str, values: list):
    """Wide count table: one row per ``row_col`` key, columns ``n_<value>``
    for each pivot value plus ``n_other`` for everything else."""
    out_cols = [f"n_{v}" for v in values] + ["n_other"]

    def one_hot(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t[row_col]), pc.is_valid(t[col_col])))
        c = t[col_col].to_numpy(zero_copy_only=False)
        hits = [c == v for v in values]
        other = ~np.logical_or.reduce(hits + [np.zeros(c.size, bool)])
        cols = {row_col: t[row_col].cast(pa.int64())}
        for name, hit in zip(out_cols, hits + [other]):
            cols[name] = hit.astype(np.int64)
        return pa.table(cols)

    return group_agg(
        ds.map_batches(one_hot, batch_format="pyarrow", zero_copy_batch=True),
        row_col, {c: ("sum", c) for c in out_cols},
    )

"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB.
No ``ray.init``/``ray.shutdown`` here or in the library code these use.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

import georay  # noqa: E402  (ships georay to Ray workers by value from a foreign cwd)
from georay import queries as _q  # noqa: E402


def entry() -> Any:
    """Flagship pipeline on sf0.001: image table → decode + PSNR/caption
    invariant (actor pool) → ray-cast PIP join against tile polygons
    (broadcast index) → per-tile counts."""
    return _q.flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        name: fn
        for name, (fn, _sql) in _q.registry(include_sql=False).items()
    }


def oracle_sql() -> dict[str, str]:
    return {
        name: sql for name, (_fn, sql) in _q.registry().items() if sql is not None
    }

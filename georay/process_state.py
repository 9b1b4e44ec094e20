"""Per-worker-process state that survives georay shipping by value.

:func:`per_process` keeps its entries on a holder module in
``sys.modules``, found at call time. A task that ships georay by value
unpickles fresh copies of the georay modules it reaches, so a cache held
as a module global would start empty in every task; the holder is the one
object all of a process's tasks share. This module imports nothing from
georay, so every module (``hashing``, ``jpeg``, ``images``, ``runtime``)
can keep its caches here without an import cycle.
"""

from __future__ import annotations

import sys
import types

_STAGE_STATE_MAX = 32  # distinct states kept per worker process
_STAGE_STATE_MODULE = "_georay_stage_state"


def _stage_state() -> dict:
    """The calling process's ``per_process`` entries."""
    holder = sys.modules.get(_STAGE_STATE_MODULE)
    if holder is None:
        fresh = types.ModuleType(_STAGE_STATE_MODULE)
        fresh.entries = {}
        holder = sys.modules.setdefault(_STAGE_STATE_MODULE, fresh)
    return holder.entries


def per_process(key: str, factory):
    """Per-worker-process singleton: one ``factory()`` call per ``key`` in
    each worker process, however georay ships to the workers (by reference
    or by value, ``georay/__init__``).

    Ray reuses worker processes across tasks, so state built once per
    process amortizes exactly like actor state while tasks pack elastically
    with other stages (no reserved-CPU starvation — see ops/images.py
    docstring for the measured tradeoff). LRU-capped: long-lived sessions
    running many pipelines would otherwise accumulate one lookup table per
    broadcast ref forever."""
    state = _stage_state()
    inst = state.pop(key, None)
    if inst is None:
        inst = factory()
    state[key] = inst  # re-insert -> most-recently-used position
    while len(state) > _STAGE_STATE_MAX:
        state.pop(next(iter(state)))
    return inst

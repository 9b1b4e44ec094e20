"""Per-worker-process state that survives georay shipping by value.

:func:`per_process` keeps its entries on a holder module in
``sys.modules``, found at call time. A task that ships georay by value
unpickles fresh copies of the georay modules it reaches, so a cache held
as a module global would start empty in every task; the holder is the one
object all of a process's tasks share. This module imports nothing from
georay, so every module (``hashing``, ``jpeg``, ``images``, ``runtime``)
can keep its caches here without an import cycle.

:func:`broadcast` is the one way a plan ships driver-side state to its
workers: one :func:`put`, then one ``ray.get`` (and build) per worker
process, cached by :func:`per_process`. :func:`put` is also how a
driver-answered one-block Dataset (``io.one_block``) stores its block.
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
    process is built once however many tasks the process runs, and the
    tasks release their CPU between batches. LRU-capped: long-lived
    sessions running many pipelines would otherwise accumulate one lookup
    table per broadcast forever."""
    state = _stage_state()
    inst = state.pop(key, None)
    if inst is None:
        inst = factory()
    state[key] = inst  # re-insert -> most-recently-used position
    while len(state) > _STAGE_STATE_MAX:
        state.pop(next(iter(state)))
    return inst


def put(value):
    """``value`` in the object store, as a ref: the one ``ray.put``, under
    :func:`broadcast`'s worker state and the block of a driver-answered
    Dataset (``io.one_block``)."""
    import ray

    return ray.put(value)


def broadcast(value, build=None):
    """Ship ``value`` to the workers once and return a zero-argument getter
    for it.

    The driver does one ``ray.put``. The getter gives the calling worker
    process ``build(ray.get(ref))``, or the fetched value itself when there
    is no ``build``; the first call in each process fetches and builds, and
    :func:`per_process` caches the result under the ref, so later batches
    and tasks in that process reuse it. Getters keep the fetched value
    across batches: treat it (numpy arrays from the object store are
    read-only anyway) and what ``build`` returns as shared, not scratch."""
    ref = put(value)
    key = "broadcast:" + ref.hex()

    def fetch():
        import ray

        got = ray.get(ref)
        return got if build is None else build(got)

    return lambda: per_process(key, fetch)

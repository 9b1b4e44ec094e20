"""georay — a Ray-Data-native spatial-join + tiling engine.

From-scratch implementation (NOT a port) of the query/data-processing
capabilities of ``fbriol/pangeo-geohash``, generalized into an H3/S2-style
hierarchical cell-index layer over Ray Data pipelines. See SURVEY.md for the
blueprint and provenance notes.

How georay code reaches Ray workers is settled when this package is
imported (:func:`shipped_by_value` tells which way was taken):

- **By reference** when ``ray.init`` will put this checkout's root on every
  worker's ``sys.path``: Ray adds the driver's working directory, and its
  script directory when that directory is on the driver's ``sys.path``
  (``JobConfig._py_driver_sys_path``). A task then pickles a georay function
  as its qualified name and the worker imports the modules its tasks name,
  once per process, so module state such as the ``runtime.per_process``
  cache lives as long as the worker.
- **By value** otherwise (a driver run from another directory that put the
  checkout on its own ``sys.path``, as ``__ray_entry__.py`` does): every
  georay module is registered with cloudpickle, so tasks carry the code
  they reach and workers never import georay.

``PYTHONPATH`` is not consulted: a Ray cluster started elsewhere does not
carry the driver's environment.

Importing georay also turns off Ray Data's per-operator resource reservation
(``DataContext.op_resource_reservation_enabled``) in the process's current
``DataContext``, the one every Dataset built afterwards copies. With it on,
Ray Data's ``ReservationOpResourceAllocator`` reserves at least one task's
CPU for each operator that has not finished, upstream first. The flagship
(``queries.flagship``) has three CPU-requesting map operators: the image read
(0.99 CPU), the fused decode → ``keep_ok`` → PIP → partial stage (1 CPU) and
``runtime.group_agg``'s combine (1 CPU), which idles behind
``repartition(1)`` until the end. On a 2-CPU node the combine's share kept
the decode stage's budget below two tasks for the whole pass, even after the
read finished: all 20 decode batches of a pass ran in one worker process,
one after another, while the other CPU idled. Without reservation the
decode stage runs two tasks at once and the ``images_flagship`` benchmark
pass takes a third less time, 2.39 → 1.58 s in the median (BASELINE.md,
"Ray Data without per-operator reservation"). Ray's no-reservation mode caps the executor at 0.25 of the
object store instead of 0.5. This is the only place georay sets it: no stage
turns it back on or works around it with per-stage ``num_cpus``.
"""

from __future__ import annotations

import os
import sys

import ray.data

__version__ = "0.1.0"

from georay import codec  # noqa: F401

_ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def _workers_import_by_reference() -> bool:
    """Whether ``ray.init`` called now would put this checkout's root on
    the workers' ``sys.path``: it does so for the working directory, and for
    the script's directory when that is on ``sys.path`` (``ray.init`` in
    ``ray._private.worker``)."""
    try:
        dirs = [os.getcwd()]
    except OSError:  # working directory deleted
        return False
    script = sys.argv[0] if sys.argv else ""
    if script:
        script_dir = os.path.dirname(os.path.realpath(script))
        if script_dir in sys.path:
            dirs.append(script_dir)
    return any(os.path.realpath(d) == _ROOT for d in dirs)


def register_by_value() -> None:
    """Ship georay code to Ray workers by value.

    Called at import time when workers cannot import georay by reference
    (:func:`_workers_import_by_reference`). Call it yourself before building
    a pipeline when that test cannot see how the workers start: a driver
    that ``chdir``s out of this checkout between importing georay and
    ``ray.init``, or one whose ``runtime_env`` ``working_dir`` is not this
    checkout. Registering the package covers every submodule, also those
    imported later (cloudpickle checks a module's parent packages).
    """
    import ray.cloudpickle as cp

    cp.register_pickle_by_value(sys.modules[__name__])


def shipped_by_value() -> bool:
    """Whether georay code ships to Ray workers by value now."""
    import ray.cloudpickle as cp

    return __name__ in cp.list_registry_pickle_by_value()


if not _workers_import_by_reference():
    register_by_value()

ray.data.DataContext.get_current().op_resource_reservation_enabled = False

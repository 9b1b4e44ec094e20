"""Start and stop the single-node Ray the benchmark drives.

Two logical CPUs on any host: the fewest at which every georay plan can be
scheduled, because the fixture image read asks for ``num_cpus=1.01``
(see ``perfbench/probe.py``).
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager

from perfbench.host import descendants, wait_gone

LOGICAL_CPUS = 2
OBJECT_STORE_BYTES = 768 << 20
# Ray's unix socket paths sit about 70 characters below its temp dir and may
# not exceed 107 characters in all
_MAX_TEMP_DIR_LEN = 36


def ray_temp_dir(path: str) -> str:
    """An absolute temp dir for Ray inside the checkout, short enough for
    its socket paths. Every Ray process inherits this process's working
    directory, so ``/proc/self/cwd`` names the checkout in each of them."""
    path = os.path.abspath(path)
    if len(path) <= _MAX_TEMP_DIR_LEN:
        return path
    return os.path.join("/proc/self/cwd", os.path.relpath(path))


def start(temp_dir: str, num_cpus: int = LOGICAL_CPUS,
          object_store_bytes: int = OBJECT_STORE_BYTES) -> None:
    import ray
    import ray.data

    shutil.rmtree(temp_dir, ignore_errors=True)  # logs of earlier runs
    ray.init(
        address="local",  # always a new node, never one already running
        num_cpus=num_cpus,
        include_dashboard=False,
        log_to_driver=False,  # keeps worker output off the result stream
        logging_level="ERROR",
        object_store_memory=object_store_bytes,
        _temp_dir=ray_temp_dir(temp_dir),
    )
    ray.data.DataContext.get_current().enable_progress_bars = False


def stop() -> None:
    """Shut the node down and wait until each of its processes has ended."""
    import ray

    node = descendants()
    ray.shutdown()
    wait_gone(node)


@contextmanager
def node(temp_dir: str):
    """A started Ray node, stopped on leaving the block however it is left."""
    start(temp_dir)
    try:
        yield
    finally:
        stop()

"""Can a one-file image read be scheduled with as many logical CPUs as the
host has cores?

``georay.fixtures`` reads image files in a ``map_batches`` stage that asks
for ``num_cpus=1.01`` (to stop operator fusion), which a 1-CPU Ray node can
never grant, so the read waits forever. The benchmark therefore runs its
Ray node with 2 logical CPUs, and this probe keeps the defect visible: it
starts its own Ray node with ``nproc`` logical CPUs in a subprocess and
reads one fixture file under a short deadline.

Run as a script: ``python3 perfbench/probe.py <image dir> <ray temp dir>
<num cpus> <deadline s>``; prints one JSON line.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

if __package__ in (None, ""):  # run as a script: make the checkout importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import cluster  # noqa: E402
from perfbench.host import DeadlineExceeded, deadline, group_members, wait_gone  # noqa: E402

# a one-file read on a fresh 2-CPU node takes about 2 s here
READ_DEADLINE_S = 4.0


class ReadProbe:
    """The probe subprocess, started early and collected before set-up so
    its Ray node never overlaps a timed section."""

    def __init__(self, image_dir: str, ray_tmp: str, num_cpus: int):
        self.num_cpus = num_cpus
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), image_dir, ray_tmp,
             str(num_cpus), str(READ_DEADLINE_S)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own process group: killable as one
        )

    def result(self) -> dict:
        try:
            line = _readline(self.proc.stdout, timeout=READ_DEADLINE_S + 40)
            res = json.loads(line)
        except (TimeoutError, ValueError):
            res = {"schedulable": False, "error": "probe process did not report"}
        finally:
            # the probe's Ray node lives in the probe's own process group
            members = group_members(self.proc.pid)
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            wait_gone(members)
        res["num_cpus"] = self.num_cpus
        return res


def _readline(stream, timeout: float) -> str:
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise TimeoutError("probe process did not report")
    return stream.readline().decode()


def _main(image_dir: str, ray_tmp: str, num_cpus: int, deadline_s: float) -> None:
    from georay import fixtures

    cluster.start(ray_tmp, num_cpus=num_cpus, object_store_bytes=128 << 20)
    res = {"schedulable": False}
    t0 = time.perf_counter()
    try:
        with deadline(deadline_s):
            rows = fixtures._read_images_path(image_dir, None).count()
        res = {"schedulable": True, "rows": rows}
    except DeadlineExceeded:
        res["error"] = f"one-file read not done after {deadline_s:.0f} s"
    res["read_s"] = time.perf_counter() - t0
    # no shutdown: the parent kills this process group, Ray node included
    print(json.dumps(res), flush=True)


if __name__ == "__main__":
    _main(sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4]))

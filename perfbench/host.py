"""Host and Ray-node observations that sit beside the metrics.

Nothing here changes what is measured: the CPU-state deltas, the memory
samples and the warning count are reported next to the timings, and a run
is never dropped, retried or adjusted because of them.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import time
from contextlib import contextmanager


def nproc() -> int:
    """What the `nproc` command prints: the CPUs this process may run on,
    lowered by ``OMP_NUM_THREADS`` when that is set."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return int(out.stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


def cpus_available() -> int:
    """CPUs this process may run on (its affinity mask)."""
    return len(os.sched_getaffinity(0))


class CpuTimes:
    """`/proc/stat` aggregate-CPU counters, for steal and system shares."""

    def __init__(self):
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
        # user nice system idle iowait irq softirq steal (guest is in user)
        self.system = fields[2]
        self.steal = fields[7]
        self.total = sum(fields)

    def fractions_since(self, before: "CpuTimes") -> dict:
        dt = max(self.total - before.total, 1)
        return {
            "steal_frac": (self.steal - before.steal) / dt,
            "sys_frac": (self.system - before.system) / dt,
        }


def _proc_stat(pid: str) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (state, ppid,
    pgrp, ...); the name itself may hold spaces and parentheses."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None  # process ended while scanning


def descendants() -> list[int]:
    """Live processes below this one: the Ray node that ``ray.init``
    started (GCS, raylet, workers) and anything they started."""
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        fields = name.isdigit() and _proc_stat(name)
        if fields and fields[0] != "Z":
            kids.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [os.getpid()]
    while todo:
        for pid in kids.get(todo.pop(), ()):
            out.append(pid)
            todo.append(pid)
    return out


def node_pss_mb() -> float:
    """Proportional set size of this process plus its descendants. PSS splits
    shared pages among the processes that map them, so the object store is
    counted once."""
    total_kb = 0
    for pid in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    fields = _proc_stat(str(pid))
    return fields is not None and fields[0] != "Z"


def wait_gone(pids: list[int], grace_s: float = 10.0) -> None:
    """Wait until every listed process has ended, killing what is left
    after ``grace_s``."""
    t_end = time.monotonic() + grace_s
    while True:
        pids = [p for p in pids if _alive(p)]
        if not pids:
            return
        if time.monotonic() > t_end:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.1)


def group_members(pgid: int) -> list[int]:
    """Live processes of a process group."""
    out = []
    for name in os.listdir("/proc"):
        fields = name.isdigit() and _proc_stat(name)
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            out.append(int(name))
    return out


SCHEMA_WARNING = "RefBundle with a different schema"
_EXECUTOR_STATE_LOGGER = "ray.data._internal.execution.streaming_executor_state"


class SchemaWarningCounter(logging.Handler):
    """Counts Ray Data's "RefBundle with a different schema" warnings, which
    Ray Data's streaming executor logs in the process that runs a Dataset."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if SCHEMA_WARNING in record.getMessage():
            self.count += 1

    def __enter__(self) -> "SchemaWarningCounter":
        logging.getLogger(_EXECUTOR_STATE_LOGGER).addHandler(self)
        return self

    def __exit__(self, *exc) -> None:
        logging.getLogger(_EXECUTOR_STATE_LOGGER).removeHandler(self)


class DeadlineExceeded(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the main thread if the block runs longer
    than ``seconds``. A timer signal, so the closed-loop client stays one
    thread."""

    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"deadline of {seconds:.0f} s exceeded")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

"""The closed-loop client: the benchmark process itself, one operation at a time."""

from __future__ import annotations

import time

from tools.check_oracle import compare

from perfbench.host import DeadlineExceeded, deadline, node_pss_mb

# per-operation deadlines, about ten times the slowest call seen at 2 CPUs;
# an operation that misses its deadline counts as failed
OP_DEADLINE_S = {"flagship": 60.0, "build": 60.0, "lookup": 20.0, "box": 20.0}
PLAN_DEADLINE_S = 60.0
# reading every Ray process's smaps costs 50 ms or more, so memory is sampled
# after an operation only when this long has passed since the last sample
# (so always after a call that long: a shuffle plan, tile_counts, a build, a
# flagship pass)
PSS_EVERY_S = 1.5


def deadline_s(kind: str) -> float:
    return OP_DEADLINE_S.get(kind, PLAN_DEADLINE_S)


class Client:
    """Runs each operation under its deadline, checks the result against
    the operation's reference and keeps the accounts: attempts, failures
    (raised, late or wrong), wall time per operation kind and the peak
    memory of the Ray node, sampled after operations (see PSS_EVERY_S)."""

    def __init__(self, hard_end: float):
        self.hard_end = hard_end  # time.monotonic() after which nothing starts
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.peak_pss_mb = 0.0
        self._pss_at = float("-inf")

    def time_left(self) -> float:
        return self.hard_end - time.monotonic()

    def run(self, op, record: bool = True) -> None:
        self.attempted += 1
        limit = min(deadline_s(op.kind), self.time_left())
        t0 = time.perf_counter()
        try:
            with deadline(max(limit, 1.0)):
                got = op.run()
            problems = None
        except DeadlineExceeded as exc:
            problems = [str(exc)]
        except Exception as exc:  # noqa: BLE001 — a failed operation is counted, not fatal
            problems = [f"raised {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if problems is None:
            problems = compare(op.kind, got, op.expected())
        if problems:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op.kind}: " + "; ".join(problems)[:300])
        if record:
            self.samples.setdefault(op.kind, []).append(dt)
        if time.monotonic() - self._pss_at >= PSS_EVERY_S:
            self.peak_pss_mb = max(self.peak_pss_mb, node_pss_mb())
            self._pss_at = time.monotonic()

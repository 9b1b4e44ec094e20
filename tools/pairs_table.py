"""Markdown table of alternating parent/change benchmark runs.

    python tools/pairs_table.py --parent p1.log p2.log ... --change c1.log c2.log ...

Each file holds the output of one ``perfbench/run.py --trace 0`` run; the
line ``{"record": {...}}`` is read from it. The i-th parent run and the
i-th change run form pair i, so pass them in the order they ran. A log may
hold several runs: its records are taken in order.

One row per end-to-end metric (``setup_s``, ``mix_s``, ``peak_rss_mb``,
``ok_share``), one for ``setup_s`` without Ray's node start (the record's
``setup_s.ray_start_s``, most of the spread of ``setup_s``) and, for the
``points`` workload, per operation kind (the run's median wall of that
kind) and for ``mix_s`` without the build: the median [q1, q3] over the
runs of each tree, the change of the medians, and the pairs in which the
change was better.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

LOWER_IS_BETTER = {"setup_s": True, "mix_s": True, "peak_rss_mb": True,
                   "ok_share": False}


def records(paths: list[str]) -> list[dict]:
    """The ``record`` objects in ``paths``, in order."""
    out = []
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.startswith('{"record"'):
                    out.append(json.loads(line)["record"])
    return out


def metrics(rec: dict) -> dict[str, float]:
    """One run's end-to-end metrics, its set-up after Ray's node start
    and, for ``points``, its per-kind median walls (ms) and its mix
    without the build."""
    out = {
        "setup_s": rec["setup_s"]["value"],
        "mix_s": rec["mix_s"]["value"],
        "peak_rss_mb": rec["peak_rss_mb"]["value"],
        "ok_share": 1.0 - rec["failed_share"]["value"],
        "setup_s without Ray start": (rec["setup_s"]["value"]
                                      - rec["setup_s"]["ray_start_s"]),
    }
    if rec["workload"] == "points":
        from perfbench.workloads import MIX

        samples = rec["mix_s"]["samples"]
        med = {k: statistics.median(v) for k, v in samples.items() if v}
        for kind in MIX["points"]:
            if kind in med:
                out[f"{kind} (ms)"] = med[kind] * 1e3
        if "build" in med:
            out["mix_s without build"] = (
                out["mix_s"] - MIX["points"]["build"] * med["build"])
    return out


def summary(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def table(parent: list[dict], change: list[dict]) -> str:
    """The markdown table for runs paired by position."""
    n = min(len(parent), len(change))
    if n == 0:
        raise SystemExit("no record lines: pass perfbench --trace 0 logs")
    pm = [metrics(r) for r in parent[:n]]
    cm = [metrics(r) for r in change[:n]]
    names = [k for k in pm[0] if all(k in m for m in pm + cm)]
    lines = [f"| metric ({parent[0]['workload']}, {n} pairs) | parent | change "
             "| change of medians | change better |",
             "|---|---|---|---|---|"]
    for name in names:
        p = [m[name] for m in pm]
        c = [m[name] for m in cm]
        lower = LOWER_IS_BETTER.get(name, True)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        pmed = statistics.median(p)
        delta = ((statistics.median(c) - pmed) / pmed * 100 if pmed
                 else float("nan"))
        lines.append(f"| {name} | {summary(p)} | {summary(c)} | "
                     f"{delta:+.1f} % | {wins}/{n} |")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    print(table(records(args.parent), records(args.change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""georay benchmark: one closed-loop client on a 2-logical-CPU Ray node.

    python3 perfbench/run.py --workload {images_flagship,points}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The first run generates the fixed inputs
under ``.perfbench_data/``. ``--trace 0`` prints the end-to-end record and
then, as the last line, the result object with the end-to-end metrics;
``--trace 1`` prints the per-layer metrics instead (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

if __package__ in (None, ""):  # run as a script: make the checkout importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

T_START = time.monotonic()
# a run ends well inside 180 s: no operation starts later than this after
# the inputs are ready (the first run in a checkout also generates them)
HARD_END_S = 140.0


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def beyond_p90(values: list[float]) -> int:
    """Samples above the p90 estimate: the tail the p90 rests on."""
    return sum(x > _p90(values) for x in values) if len(values) >= 10 else 0


def _stat(values: list[float], unit: str, scale: float = 1.0) -> dict:
    return {"value": statistics.median(values) * scale, "unit": unit, "n": len(values)}


def workload_metrics(name: str, samples: dict[str, list[float]]) -> dict:
    """The per-workload metrics the record reports beside the contract."""
    from perfbench import inputs as inp
    from perfbench.workloads import POINT_PLANS

    out = {}
    if name == "images_flagship":
        passes = samples.get("flagship", [])
        if passes:
            out["images_per_s"] = {"value": inp.N_IMAGES * len(passes) / sum(passes),
                                   "unit": "images/s", "n": len(passes)}
    else:
        for plan in POINT_PLANS:
            if samples.get(plan):
                out[f"{plan}_s"] = _stat(samples[plan], "s")
        if samples.get("build"):
            b = _stat(samples["build"], "s")
            out["index_build_rows_per_s"] = {"value": inp.N_LINEITEMS / b["value"],
                                             "unit": "rows/s", "n": b["n"]}
        look = samples.get("lookup", [])
        if look:
            out["lookup_ms_p50"] = _stat(look, "ms", 1e3)
        if len(look) >= 10:
            out["lookup_ms_p90"] = {"value": _p90(look) * 1e3, "unit": "ms", "n": len(look),
                                    "samples_beyond": beyond_p90(look)}
        if samples.get("box"):
            out["box_ms_p50"] = _stat(samples["box"], "ms", 1e3)
    return out


def mix_seconds(name: str, samples: dict[str, list[float]]) -> float:
    """Time of the workload's call mix (workloads.MIX) at the run's median
    wall time per kind. A kind that never ran counts at its deadline."""
    from perfbench.client import deadline_s
    from perfbench.workloads import MIX

    return sum(n * (statistics.median(samples[k]) if samples.get(k) else deadline_s(k))
               for k, n in MIX[name].items())


def run_untraced(args, data, client) -> dict:
    from perfbench import cluster
    from perfbench.host import CpuTimes, SchemaWarningCounter, cpus_available, nproc
    from perfbench.probe import ReadProbe
    from perfbench.workloads import Workload

    # the probe's own Ray node overlaps only the untimed reference build;
    # there is one set-up per run (about 7 s: the run budget allows no more)
    timeline = {"start": time.monotonic() - T_START}
    probe = ReadProbe(data.probe_images, data.ray_tmp + "_probe", nproc())
    try:
        wl = Workload(args.workload, data, args.seed)
        timeline["references"] = time.monotonic() - T_START
    finally:
        probe_res = probe.result()
    timeline["probe"] = time.monotonic() - T_START

    with SchemaWarningCounter() as warnings:
        t0 = time.perf_counter()
        with cluster.node(data.ray_tmp):
            ray_start_s = time.perf_counter() - t0
            for op in wl.warm_ops:
                client.run(op, record=False)
            setup_s = time.perf_counter() - t0
            timeline["setup"] = time.monotonic() - T_START
            cpu0 = CpuTimes()
            t_end = time.monotonic() + args.seconds
            for op in wl.ops():
                if client.time_left() < 5.0:
                    break
                # every kind runs once; after that, a kind starts only if its
                # median so far fits in the window, which ends once none does
                now = time.monotonic()
                meds = {k: statistics.median(v) for k, v in client.samples.items()}
                if wl.kinds <= set(meds) and now + min(meds.values()) > t_end:
                    break
                if op.kind in meds and now + meds[op.kind] > t_end:
                    continue
                client.run(op)
            # p90 rests on at least 10 lookups beyond it
            while (wl.name == "points" and client.time_left() > 5.0
                   and beyond_p90(client.samples.get("lookup", [])) < 10):
                client.run(wl.lookup())
            host = CpuTimes().fractions_since(cpu0)
            timeline["measure"] = time.monotonic() - T_START
        timeline["stop"] = time.monotonic() - T_START

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": nproc(),
        "cpus_available": cpus_available(),
        "logical_cpus": cluster.LOGICAL_CPUS,
        "read_schedulable_at_nproc": probe_res["schedulable"],
        "read_probe": probe_res,
        "client": "one closed-loop client (this process), no extra threads",
        "setup_s": {"value": setup_s, "unit": "s", "ray_start_s": ray_start_s},
        **workload_metrics(args.workload, client.samples),
        "peak_rss_mb": {"value": client.peak_pss_mb, "unit": "MB",
                        "what": "PSS of this process + Ray node, sampled after ops at most every 1.5 s"},
        "failed_share": {"value": client.failed / max(client.attempted, 1),
                         "unit": "share", "attempted": client.attempted,
                         "failed": client.failed},
        "mix_s": {"value": mix_seconds(args.workload, client.samples), "unit": "s",
                  "samples": client.samples},
        "ray.schema_mismatch_warnings": warnings.count,
        "host": host,
        "errors": client.errors,
        "timeline_s": timeline,
    }
    print(json.dumps({"record": record}), flush=True)
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {
            "setup_s": {"value": record["setup_s"]["value"], "unit": "s"},
            "mix_s": {"value": record["mix_s"]["value"], "unit": "s"},
            "peak_rss_mb": {"value": client.peak_pss_mb, "unit": "MB"},
            "ok_share": {"value": 1.0 - record["failed_share"]["value"],
                         "unit": "share"},
        },
    }


def main() -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import ray.cloudpickle

    from perfbench import cluster, inputs
    from perfbench.client import Client
    from perfbench.inputs import Inputs

    # workers import nothing from the checkout: ship the benchmark's own
    # stage functions by value, as georay does for its modules
    ray.cloudpickle.register_pickle_by_value(inputs)
    data = Inputs(os.getcwd())
    if not data.ready():
        with cluster.node(data.ray_tmp):
            data.generate()
    client = Client(time.monotonic() + HARD_END_S)
    if args.trace:
        from perfbench.trace import run_traced

        result = run_traced(args, data, client)
    else:
        result = run_untraced(args, data, client)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        import georay  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"perfbench: cannot import georay from {os.getcwd()}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())

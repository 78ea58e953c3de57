"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 11-20 --traced-seed 21 --out perfbench/baseline.json
    python3 perfbench/collect.py --workloads report_B --seeds 1-5

For every workload and seed set it runs ``run.py --trace 0`` once per seed
and keeps the metrics; with ``--traced-seed`` it adds one ``--trace 1`` run
per workload.  Per end-to-end metric and set it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and whether that spread is under a third of the metric's
bound in BENCHMARK.json.  Each later set is compared with the first: its
spread must stay within the bound and its median may be worse by at most
the bound.  Every run measures BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT, THREADS


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread,
            "steady": spread < bound / 3.0}


def run_set(workload, seeds, seconds, metrics) -> dict:
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    entry = {"seeds": seeds, "correct": all(r["correct"] for r in runs),
             "attempted": sum(r["attempted"] for r in runs),
             "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
    for m in metrics:
        s = summarize([r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
        entry["end_to_end"][m["name"]] = s
        print(f"{workload:<14} seeds {seeds[0]}-{seeds[-1]} {m['name']:<12} "
              f"median {s['median']:<12.6g} spread {s['spread']:.4f} bound {m['bound']} "
              f"{'steady' if s['steady'] else 'NOT STEADY'}", flush=True)
    return entry


def agreement(first, later, metrics) -> dict:
    """Per metric: the later set's median change and whether it is acceptable.

    Acceptable means the later set's spread is within the bound and its
    median is no worse than the first's by more than the bound.
    """
    out = {}
    for m in metrics:
        a, b = first["end_to_end"][m["name"]], later["end_to_end"][m["name"]]
        change = b["median"] / a["median"] - 1.0 if a["median"] else 0.0
        worse = change if m["better"] == "lower" else -change
        out[m["name"]] = {"median_change": change,
                          "agrees": worse <= m["bound"] and b["spread"] <= m["bound"]}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=_seeds, nargs="+", default=[_seeds("1-10")],
                        help="one or more seed sets; later sets are compared to the first")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    summary = {"machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                           "platform": platform.platform(), "cpu": _cpu_model(),
                           "jobs": THREADS, "blas_threads": THREADS},
               "run_seconds": bench["run_seconds"],
               "bounds": {m["name"]: m["bound"] for m in metrics}, "workloads": {}}
    for workload in args.workloads:
        sets = [run_set(workload, seeds, bench["run_seconds"], metrics)
                for seeds in args.seeds]
        entry = {"sets": sets,
                 "agreement": [agreement(sets[0], later, metrics) for later in sets[1:]]}
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, bench["run_seconds"], 1)
            entry["traced_seed"] = args.traced_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

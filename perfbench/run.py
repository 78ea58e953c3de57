"""curvewave benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload report_B --seed 1 --seconds 36 --trace 0

Runs one workload as a closed loop: one caller starts a sample, waits for it,
then starts the next, for about ``--seconds`` seconds, and always runs at
least MIN_SAMPLES samples (with ``--trace 1``, one traced and one untraced).
Each run first starts SETUP_PROBES processes that only set up, so that
``setup_s`` is a median over several set-ups.  Each sample is a fresh
process (perfbench/sample.py) with a fresh output directory under
``.perfbench_runs/`` and at most ``nproc`` (capped at 2) solver workers and
BLAS threads.  Prints one line per metric with its unit and sample count,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (medians over samples).
``--trace 1`` alternates traced and untraced samples and reports the
per-layer metrics of LAYER_METRICS (medians over traced samples), the
tracing overhead and the share of traced wall time no span covers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0
#: set-up-only processes per run, so that setup_s is a median of several
#: set-ups even when only one or two samples fit in a run
SETUP_PROBES = 4
#: samples every run makes, however long they take, so that a metric is never
#: read off one sample and a small speed change does not change the count
MIN_SAMPLES = 2
#: workers and BLAS threads per sample
THREADS = min(2, len(os.sched_getaffinity(0)))

#: (name, unit, better): end-to-end metrics, --trace 0
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
)


def _self(prefix):
    return lambda st: sum(v for k, v in st["self"].items() if k.startswith(prefix))


def _calls(prefix):
    return lambda st: float(sum(v for k, v in st["calls"].items() if k.startswith(prefix)))


def _incl(name):
    return lambda st: st["incl"].get(name, 0.0)


def _count(name):
    return lambda st: st["counts"].get(name, 0.0)


def _ratio(num, den):
    return lambda st: (st["counts"].get(num, 0.0) / st["counts"][den]
                       if st["counts"].get(den) else 0.0)


def _resonance_yield(st):
    found = st["counts"].get("spectrum.resonances", 0.0)
    lost = st["counts"].get("spectrum.diagnostics", 0.0)
    return found / (found + lost) if found + lost else 0.0


def _fn(name, stat):
    if stat == "calls":
        return lambda st: float(st["calls"].get(name, 0))
    return lambda st: st["self"].get(name, 0.0)


#: (metric, unit, better, value from one traced sample, what it should move)
LAYER_METRICS = (
    ("cylinder.calls", "count", "lower", _calls("cylinder."),
     "wall_s on spectrum_scan (scalar log-derivatives, order ratios)"),
    ("cylinder.self_s", "s", "lower", _self("cylinder."),
     "wall_s on spectrum_scan; wall_s on report_B"),
    ("cylinder.ratio_array.points", "count", "lower",
     _count("cylinder.ratio_array.points"), "wall_s on report_B and report_D"),
    ("cylinder.ratio_array.self_s", "s", "lower",
     lambda st: (st["self"].get("cylinder.hankel1_ratio_array", 0.0)
                 + st["self"].get("cylinder.bessel_k_ratio_array", 0.0)),
     "wall_s on report_B (evaluator profiles), report_D"),
    *[(f"spectrum.{fn}.{stat}", "count" if stat == "calls" else "s", "lower",
       _fn(f"spectrum.{fn}", stat),
       "wall_s on spectrum_scan; about 3% of wall_s on report_*")
      for fn in ("build_mode_table", "find_bound_modes", "find_resonances")
      for stat in ("calls", "self_s")],
    ("spectrum.characteristic.calls", "count", "lower",
     _fn("spectrum.characteristic", "calls"), "wall_s on spectrum_scan"),
    ("spectrum.count_bound_sturm.calls", "count", "lower",
     _fn("spectrum.count_bound_sturm", "calls"), "wall_s on spectrum_scan"),
    ("spectrum.modes", "count", "higher", _count("spectrum.modes"),
     "must not change: fail_frac on every workload"),
    ("spectrum.diagnostics", "count", "lower", _count("spectrum.diagnostics"),
     "wall_s on spectrum_scan (rejected Newton seeds)"),
    ("spectrum.resonance_yield", "ratio", "higher", _resonance_yield,
     "wall_s on spectrum_scan"),
    ("packet.expand.calls", "count", "lower", _fn("packet.expand", "calls"),
     "wall_s, cpu_s on report_D and report_B"),
    ("packet.expand.self_s", "s", "lower", _fn("packet.expand", "self_s"),
     "wall_s, cpu_s on report_D and report_B"),
    ("packet.expand.entries", "count", "lower", _count("packet.expand.entries"),
     "must not change: report checks"),
    ("packet.expand.keep_ratio", "ratio", "higher",
     _ratio("packet.expand.entries", "packet.expand.computed"),
     "wall_s on report_D and report_B"),
    ("packet.FieldEvaluator.calls", "count", "lower",
     _fn("packet.FieldEvaluator", "calls"), "wall_s, peak_rss_mb on report_B"),
    ("packet.FieldEvaluator.self_s", "s", "lower",
     _fn("packet.FieldEvaluator", "self_s"),
     "wall_s, peak_rss_mb on report_B; wall_s on report_D"),
    ("packet.FieldEvaluator.profile_points", "count", "lower",
     _count("packet.FieldEvaluator.profile_points"), "peak_rss_mb on report_B"),
    *[(f"packet.{fn}.{stat}", "count" if stat == "calls" else "s", "lower",
       _fn(f"packet.{fn}", stat), "wall_s on report_B")
      for fn in ("snapshot", "polar_frame", "at_points")
      for stat in ("calls", "self_s")],
    ("packet.at_points.points", "count", "lower", _count("packet.at_points.points"),
     "wall_s on report_B"),
    ("observables.tunneling_direction.self_s", "s", "lower",
     _fn("observables.tunneling_direction", "self_s"), "wall_s on report_B"),
    ("observables.emission_husimi.calls", "count", "lower",
     _fn("observables.emission_husimi", "calls"), "wall_s on report_B"),
    ("observables.emission_husimi.self_s", "s", "lower",
     _fn("observables.emission_husimi", "self_s"), "wall_s on report_B"),
    ("observables.average_position.calls", "count", "lower",
     _fn("observables.average_position", "calls"), "wall_s on report_B, report_D"),
    ("observables.average_position.self_s", "s", "lower",
     _fn("observables.average_position", "self_s"), "wall_s on report_B, report_D"),
    ("observables.gh_fit.self_s", "s", "lower", _fn("observables.gh_fit", "self_s"),
     "wall_s on report_B"),
    ("observables.interior_fraction.self_s", "s", "lower",
     _fn("observables.interior_fraction", "self_s"), "wall_s on report_D"),
    ("observables.delta_predicted.self_s", "s", "lower",
     _fn("observables.delta_predicted", "self_s"), "wall_s on report_B"),
    ("barrier1d.gh_theory.self_s", "s", "lower", _fn("barrier1d.gh_theory", "self_s"),
     "wall_s on report_B"),
    ("serialization.self_s", "s", "lower", _self("serialization."),
     "wall_s on report_B and report_D"),
    ("serialization.bytes", "bytes", "lower", lambda st: float(st["bytes"]),
     "artifact size per report run"),
    *[(f"scenarios.{stage}.s", "s", "lower", _incl(f"scenarios.{stage}"),
       f"wall_s on report_* (inclusive time of {stage})")
      for stage in ("solve_table", "run_expand", "run_gh", "run_husimi",
                    "run_fractions")],
    ("scenarios.self_s", "s", "lower", _self("scenarios."),
     "wall_s on report_* (orchestration)"),
    ("trace.wall_s", "s", "lower", lambda st: st["wall_s"],
     "traced wall time per sample"),
    ("trace.overhead_s", "s", "lower", None,
     "traced minus untraced wall_s: cost of the wrappers"),
    ("trace.uncovered_frac", "ratio", "lower",
     lambda st: max(0.0, 1.0 - st["covered"] / st["wall_s"]),
     "share of traced wall time no span covers"),
)


def sample_stats(out_dir, result) -> dict:
    """Per-name calls, self and inclusive time of one traced sample."""
    with open(os.path.join(out_dir, "spans.json")) as f:
        data = json.load(f)
    spans = data["spans"]
    self_s, covered = self_times(spans)
    incl = Counter()
    for _, name, start, end, _, _ in spans:
        incl[name] += end - start
    return {"self": self_s, "incl": dict(incl), "covered": covered,
            "calls": Counter(s[1] for s in spans), "counts": data["counts"],
            "bytes": result["bytes"], "wall_s": result["wall_s"]}


def run_sample(run_dir, name, spec, seed, index, trace, reference, timeout,
               setup_only=False):
    out = os.path.join(run_dir, f"{'probe' if setup_only else 'sample'}{index}")
    os.makedirs(out)
    job = {"spec": spec, "seed": seed, "index": index, "trace": trace,
           "jobs": THREADS, "out": out, "reference": reference,
           "setup_only": setup_only}
    job_path = os.path.join(out, "job.json")
    with open(job_path, "w") as f:
        json.dump(job, f)
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path,
               OPENBLAS_NUM_THREADS=str(THREADS), OMP_NUM_THREADS=str(THREADS),
               MKL_NUM_THREADS=str(THREADS))
    result_path = os.path.join(out, "result.json")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "sample.py"), job_path],
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
        ok = proc.returncode == 0 and os.path.exists(result_path)
        detail = proc.stderr
    except subprocess.TimeoutExpired:
        ok, detail = False, f"sample timed out after {timeout:.0f} s"
    if not ok:
        sys.stderr.write(f"{name} sample {index} did not complete:\n{detail}\n")
        return None
    with open(result_path) as f:
        result = json.load(f)
    if setup_only:
        return result
    for problem in result["problems"]:
        sys.stderr.write(f"{name} sample {index}: {problem}\n")
    if trace:
        result["stats"] = sample_stats(out, result)
    return result


def load_reference(name):
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "curvewave", "__init__.py")):
        sys.stderr.write(f"no curvewave sources under {ROOT}/src; nothing to measure\n")
        return 2
    spec = WORKLOADS[args.workload]
    reference = load_reference(args.workload) if spec["kind"] == "report" else None
    if spec["kind"] == "report" and reference is None:
        sys.stderr.write(f"no recorded reference for {args.workload}\n")
        return 2
    run_dir = os.path.join(ROOT, ".perfbench_runs", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    started = time.perf_counter()
    probes = [run_sample(run_dir, args.workload, spec, args.seed, i, False, reference,
                         RUN_LIMIT_S, setup_only=True) for i in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes if p is not None]
    samples, durations = [], []
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(samples) % 2 == 0
        timeout = RUN_LIMIT_S - (t0 - started)
        result = run_sample(run_dir, args.workload, spec, args.seed, len(samples),
                            traced, reference, timeout)
        durations.append(time.perf_counter() - t0)
        samples.append(result)
        if result is None:
            break
        elapsed = time.perf_counter() - started
        if (len(samples) >= MIN_SAMPLES
                and elapsed + statistics.median(durations) > args.seconds):
            break

    done = [r for r in samples if r is not None]
    traced = [r for r in done if "stats" in r]
    untraced = [r for r in done if "stats" not in r]
    if not done or (args.trace and not (traced and untraced)):
        sys.stderr.write(f"{args.workload}: too few samples completed\n")
        return 1
    expected = len(reference["metrics"]) if reference else spec["batch"]
    attempted = sum(r["attempted"] for r in done) + expected * (len(samples) - len(done))
    failed = sum(r["failed"] for r in done) + expected * (len(samples) - len(done))

    metrics, lines = {}, []
    if not args.trace:
        for name, unit, _ in END_TO_END:
            if name == "ok_frac":
                value, n = 1.0 - failed / attempted, attempted
            elif name == "setup_s":
                values = setups + [r["setup_s"] for r in done]
                value, n = statistics.median(values), len(values)
            else:
                value, n = statistics.median(r[name] for r in done), len(done)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<40} {value:>14.6g} {unit:<6} n={n}")
    else:
        for name, unit, _, fn, _ in LAYER_METRICS:
            if fn is None:
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in untraced))
                n = len(traced) + len(untraced)
            else:
                value = statistics.median(fn(r["stats"]) for r in traced)
                n = len(traced)
            metrics[name] = {"value": float(value), "unit": unit}
            lines.append(f"{name:<40} {value:>14.6g} {unit:<6} n={n}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(samples)} jobs={THREADS} blas_threads={THREADS} "
          f"elapsed_s={time.perf_counter() - started:.1f}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and len(done) == len(samples),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark sample in a fresh process: set up, run one operation, check it.

Started by run.py as ``python3 sample.py <job.json>``; writes ``result.json``
(and ``spans.json`` when traced) into the job's output directory.  The
output checks run after the timer has stopped and after tracing is removed.
A ``setup_only`` job stops after set-up and reports only ``setup_s``.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


def main(job_path) -> int:
    with open(job_path) as f:
        job = json.load(f)
    out = job["out"]
    spec = job["spec"]
    reference = job.get("reference")

    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from curvewave import scenarios, spectrum
    from curvewave.potential import PotentialSpec

    import workloads
    from spans import Tracer

    if spec["kind"] == "report":
        cfg = workloads.scenario_config(spec, job["jobs"])
        work_dir = os.path.join(out, "work")
    else:
        pots = [PotentialSpec(v0=v0)
                for v0 in workloads.step_heights(spec, job["seed"], job["index"])]
        m_values = range(spec["m_lo"], spec["m_hi"] + 1)
    setup_s = time.perf_counter() - _STARTED
    if job["setup_only"]:
        with open(os.path.join(out, "result.json"), "w") as f:
            json.dump({"setup_s": setup_s}, f)
        return 0

    tracer = Tracer(run_id=job["index"]) if job["trace"] else None
    if tracer:
        tracer.install()
    errors, tables = [], []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if spec["kind"] == "report":
        try:
            ws = scenarios.Workspace(cfg, work_dir)
            ws.table(solve=True)
            report = scenarios.run_report(ws)
        except Exception:
            errors.append(traceback.format_exc())
    else:
        for pot in pots:
            try:
                tables.append(spectrum.build_mode_table(
                    pot, m_values, resonance_k_max=spec["resonance_k_max"],
                    jobs=job["jobs"]))
            except Exception:
                errors.append(traceback.format_exc())
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.dump(os.path.join(out, "spans.json"))

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "problems": []}
    if spec["kind"] == "report":
        attempted = len(reference["metrics"]) if reference else 0
        if not errors:
            table = ws.table()
            sizes = {"modes": len(table), "classes": table.counts(),
                     "entries": len(ws.expansion()),
                     "evolution_entries": len(ws.evolution_expansion())}
            result["observed"] = {
                "sizes": sizes,
                "metrics": {k: {"value": m["value"], "pass": m["pass"]}
                            for k, m in report["metrics"].items()}}
            if reference:
                bad = workloads.check_report(report, sizes, reference)
                result["problems"] = [f"report metric {name} departs from the reference"
                                      for name in bad]
            else:
                attempted = len(report["metrics"])
        result["bytes"] = _dir_bytes(work_dir)
    else:
        attempted = len(pots)
        for table in tables:
            result["problems"] += workloads.check_table(
                table, m_values, job["seed"] + job["index"])
        result["v0"] = [pot.v0 for pot in pots]
        result["modes"] = [len(table) for table in tables]
        result["bytes"] = 0
    result["problems"] += errors
    # a sample that raises or fails its output check fails every operation
    failed = attempted if result["problems"] else 0
    result.update(attempted=attempted, failed=failed)
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

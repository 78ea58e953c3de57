"""Smoke test of the benchmark itself on seconds-long configurations.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, LAYER_METRICS  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", "7", "--seconds", "2",
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    bench = _bench()
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [row[:3] for row in LAYER_METRICS]


def test_every_metric_is_printed_with_its_unit():
    bench = _bench()
    for workload in ("smoke_spectrum", "smoke_report"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = _run(workload, trace)
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
            for name, unit in wanted.items():
                assert any(line.split()[:1] == [name] and f" {unit} " in line
                           and " n=" in line for line in lines[:-1]), name


def test_spans_nest_and_self_times_add_up():
    _run("smoke_report", 1)
    out = os.path.join(ROOT, ".perfbench_runs", "smoke_report-trace1", "sample0")
    with open(os.path.join(out, "spans.json")) as f:
        spans = json.load(f)["spans"]
    with open(os.path.join(out, "result.json")) as f:
        wall = json.load(f)["wall_s"]
    assert spans
    by_id = {s[0]: s for s in spans}
    for sid, _, start, end, parent, _ in spans:
        assert start <= end
        if parent is not None:
            p = by_id[parent]
            assert p[2] <= start and end <= p[3], (by_id[sid], p)
    self_s, covered = self_times(spans)
    assert all(v >= 0.0 for v in self_s.values())
    assert sum(self_s.values()) <= covered + 1e-9
    assert covered <= wall + 1e-9

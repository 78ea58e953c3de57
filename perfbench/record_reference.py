"""Record the report workloads' outputs as the reference run.py checks against.

    python3 perfbench/record_reference.py

Runs every report workload once, untimed and untraced, and writes the table
sizes and each report metric's value and pass flag to reference.json.  Rerun
it only when a change to the program is meant to change these outputs, and
say so where the change is described.
"""

import json
import os
import shutil
import sys

from run import HERE, ROOT, WORKLOADS, run_sample


def main() -> int:
    run_dir = os.path.join(ROOT, ".perfbench_runs", "reference")
    reference = {}
    for name, spec in sorted(WORKLOADS.items()):
        if spec["kind"] != "report":
            continue
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        result = run_sample(run_dir, name, spec, 0, 0, False, None, 600.0)
        if result is None or result["problems"]:
            sys.stderr.write(f"{name}: no reference recorded\n")
            return 1
        reference[name] = result["observed"]
        print(f"{name}: {len(result['observed']['metrics'])} metrics, "
              f"sizes {result['observed']['sizes']}")
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

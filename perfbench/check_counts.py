"""Check that the traced run's counts repeat exactly.

Run from the repository root:

    python3 perfbench/check_counts.py --seeds 1 1 2

For each workload this makes one traced run per seed and compares every
count metric.  The seed only reorders ops, so the counts must be equal for
every seed, not only for a repeated one.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_SUFFIXES = (".calls", ".term_pairs", ".cells", ".inserts", ".reduces",
                  ".max_bits", ".checked", ".basis_size", ".matrix_cells",
                  ".bytes_out")


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: outputs not correct" % (workload, seed))
    return {k: m["value"] for k, m in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def main() -> None:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    ok = True
    for workload in sorted(WORKLOADS):
        runs = [traced_counts(workload, seed) for seed in args.seeds]
        diff = sorted(k for k in runs[0]
                      if any(r[k] != runs[0][k] for r in runs[1:]))
        ok = ok and not diff
        print("%-10s %d counts over seeds %s: %s"
              % (workload, len(runs[0]), args.seeds,
                 "identical" if not diff else "DIFFER in " + ", ".join(diff)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

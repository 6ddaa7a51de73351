"""Self-test: exact counts repeat exactly across same-seed traced runs.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Runs ``run.py --trace 1`` twice per workload with the same seed, one run
after the other, and compares every per-layer metric that
``manifest.json`` marks exact (op counts, AFF sizes, cache hits, the
fleet partition's shape).  It also requires both runs to report
``correct`` with no failures.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    manifest = json.loads((HERE / "manifest.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", default=list(manifest["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    exact = [name for name, doc in manifest["per_layer"].items() if doc["exact"]]
    ok = True
    for workload in args.workload:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                print(f"{workload}: run not correct ({result['failed']} failed)")
                ok = False
        for name in exact:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                print(f"{workload}: {name} differs: {a} vs {b}")
                ok = False
        print(f"{workload}: {len(exact)} exact counts compared")
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

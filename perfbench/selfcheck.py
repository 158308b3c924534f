"""Check that the traced run's exact counts repeat across runs.

Runs ``run.py --trace 1`` twice with the same seed on each in-process
workload and compares every count (``*.calls``, ``*.cells``); each run
also checks its counts against their closed forms itself.  A wrapper
patched at the wrong name would report zeros, which the closed forms
catch; a count that depends on timing would differ between the runs,
which this catches.  From the repository root::

    python3 perfbench/selfcheck.py [--seed N]

The serve workload is left out: its coalescing and cache counts depend
on when requests meet in the service, so they are not exact.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "30", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    ).stdout.strip().splitlines()[-1]
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    ok = True
    for workload in ("availability-study", "fleet-frontier"):
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        counts = {name for name, metric in first["metrics"].items()
                  if metric["unit"] == "count" and name.endswith((".calls", ".cells"))}
        differ = sorted(name for name in counts
                        if first["metrics"][name] != second["metrics"][name])
        correct = first["correct"] and second["correct"]
        ok = ok and correct and not differ
        print(f"{workload}: {len(counts)} counts, closed forms "
              f"{'hold' if correct else 'FAIL'}, "
              f"{'identical' if not differ else 'differ: ' + ', '.join(differ)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

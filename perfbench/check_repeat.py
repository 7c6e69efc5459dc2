"""Check that the deterministic work counters repeat exactly.

    python3 perfbench/check_repeat.py [paper sweep serve]

Runs each named workload's traced run twice, with two different seeds,
and compares the ``counters`` of the two result records: simulated
cycles, blocks and instructions, simulator invocations per stage, store
saves and loads, digest calls per request, and the profiled call counts.
Seeds only reorder the work, so any difference is nondeterminism in
the program (or in the benchmark).  Exits 1 on a difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def counters(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        cwd=str(HERE.parent), capture_output=True, text=True, check=True)
    record = json.loads(done.stdout.strip().splitlines()[-2])
    return record["counters"]


def main() -> int:
    workloads = sys.argv[1:] or ["paper", "sweep", "serve"]
    status = 0
    for workload in workloads:
        first, second = counters(workload, 1), counters(workload, 2)
        differ = sorted(key for key in set(first) | set(second)
                        if first.get(key) != second.get(key))
        if differ:
            status = 1
            for key in differ:
                print(f"{workload}: {key}: {first.get(key)} != "
                      f"{second.get(key)}")
        else:
            print(f"{workload}: {len(first)} counters repeat exactly")
    return status


if __name__ == "__main__":
    sys.exit(main())

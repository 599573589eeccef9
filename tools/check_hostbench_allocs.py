#!/usr/bin/env python3
"""Allocation gate for the host-ledger benchmark.

Runs every hostbench workload at --seed 1 --seconds 1 --trace 0 and fails
when its host.allocs_per_guard_pkt exceeds the measured value below plus
0.005, one allocation per 200 guard packets. The count repeats exactly
for a seed, so any new heap allocation on the packet path trips the
gate. Lower a value together with the change that removes allocations. Run from the repository root:

    python3 tools/check_hostbench_allocs.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# host.allocs_per_guard_pkt at --seed 1 (GCC 12, libstdc++).
MEASURED = {
    "legit_steady": 0.0015,
    "spoof_flood": 0.0002,
    "tcp_churn": 0.0003,
}
SLACK = 0.005


def allocs_per_guard_pkt(workload: str) -> float:
    cmd = [sys.executable, os.path.join(ROOT, "hostbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"{workload}: exit {p.returncode}\n"
                           f"{p.stdout[-2000:]}{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return float(result["metrics"]["host.allocs_per_guard_pkt"]["value"])


def main() -> int:
    failures = 0
    for workload, measured in MEASURED.items():
        try:
            value = allocs_per_guard_pkt(workload)
        except (RuntimeError, ValueError, KeyError, IndexError) as e:
            print(f"FAIL {workload}: {e}")
            failures += 1
            continue
        limit = measured + SLACK
        ok = value <= limit
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: "
              f"host.allocs_per_guard_pkt {value:.4f} (limit {limit:.4f})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

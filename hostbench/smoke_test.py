#!/usr/bin/env python3
"""Smoke self-test of the host-ledger benchmark.

Runs every workload of BENCHMARK.json on a short window, untraced and
traced, and checks that each run exits 0 and that its last stdout line is
a correct result naming exactly the declared metrics with their units.
Run from the repository root:

    python3 hostbench/smoke_test.py [--seconds 1] [--seed 7]
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload: str, trace: int, seed: int, seconds: float,
              declared: dict) -> list:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} trace={trace}"
    if p.returncode != 0:
        return [f"{where}: exit {p.returncode}\n{p.stdout[-3000:]}{p.stderr[-3000:]}"]
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"{where}: last line is not JSON ({e})"]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: correct is {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"{where}: failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        errors.append(f"{where}: missing {missing}, undeclared {extra}")
    for name, m in metrics.items():
        if name in declared and m.get("unit") != declared[name]:
            errors.append(f"{where}: {name} unit {m.get('unit')}, "
                          f"declared {declared[name]}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} value {m.get('value')}")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            errs = check_run(w["name"], trace, args.seed, args.seconds,
                             declared[trace])
            print(f"{w['name']} trace={trace}: {'ok' if not errs else 'FAIL'}")
            errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

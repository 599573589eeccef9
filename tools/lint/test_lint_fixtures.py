#!/usr/bin/env python3
"""Regression tests for dnsguard_lint itself.

Each rule has one fixture that must pass and one that must fail; a rule
change that flips any verdict fails this suite. Run directly or via the
`lint_fixtures` CTest entry:

    python3 tools/lint/test_lint_fixtures.py

Every fixture is checked against the built-in text front-end
(--engine text), so the verdicts are identical with and without libclang
installed. When the libclang bindings ARE importable, the dataflow rules
(shard-isolation, determinism, decode-bounds) are additionally run under
--engine clang and their verdicts pinned to the text engine's — the two
front-ends feed the same rule core, and this suite is what enforces that
they keep agreeing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
LINT = os.path.join(HERE, "dnsguard_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# Rules whose fixtures are exercised under both front-ends when libclang
# is importable. (hot-path-alloc's clang mode only resolves call graphs
# on the real tree via compile_commands.json, so its fixtures stay
# text-only.)
DUAL_ENGINE_RULES = {"shard-isolation", "determinism", "decode-bounds"}

# (fixture file, rule, expected exit code under --strict)
CASES = [
    ("hot_path_alloc_pass.cpp", "hot-path-alloc", 0),
    ("hot_path_alloc_fail.cpp", "hot-path-alloc", 1),
    ("hot_path_alloc_depth_fail.cpp", "hot-path-alloc", 1),
    ("hot_path_alloc_inclass_fail.cpp", "hot-path-alloc", 1),
    ("drop_reason_pass.cpp", "drop-reason", 0),
    ("drop_reason_fail.cpp", "drop-reason", 1),
    ("bounded_state_pass.cpp", "bounded-state", 0),
    ("bounded_state_fail.cpp", "bounded-state", 1),
    ("sim_time_pass.cpp", "sim-time-purity", 0),
    ("sim_time_fail.cpp", "sim-time-purity", 1),
    ("shard_isolation_pass.cpp", "shard-isolation", 0),
    ("shard_isolation_fail.cpp", "shard-isolation", 1),
    ("determinism_pass.cpp", "determinism", 0),
    ("determinism_fail.cpp", "determinism", 1),
    ("decode_bounds_pass.cpp", "decode-bounds", 0),
    ("decode_bounds_fail.cpp", "decode-bounds", 1),
]


def clang_available():
    try:
        import clang.cindex  # noqa: F401
        return True
    except Exception:
        return False


def run_case(fixture, rule, expected, engine):
    path = os.path.join(FIXTURES, fixture)
    proc = subprocess.run(
        [sys.executable, LINT, "--root", ROOT, "--rule", rule,
         "--engine", engine, "--strict", path],
        capture_output=True, text=True)
    ok = proc.returncode == expected
    verdict = "ok" if ok else "FAIL"
    print(f"[{verdict}] {fixture} [{rule}/{engine}] expected exit "
          f"{expected}, got {proc.returncode}")
    if not ok:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    return ok


def main():
    missing = [f for f, _, _ in CASES
               if not os.path.isfile(os.path.join(FIXTURES, f))]
    if missing:
        print(f"missing fixtures: {missing}", file=sys.stderr)
        return 2
    dual = clang_available()
    runs = []
    for fixture, rule, expected in CASES:
        runs.append((fixture, rule, expected, "text"))
        if dual and rule in DUAL_ENGINE_RULES:
            runs.append((fixture, rule, expected, "clang"))
    failures = sum(0 if run_case(*r) else 1 for r in runs)
    engines = "text+clang" if dual else "text only (libclang not importable)"
    print(f"{len(runs) - failures}/{len(runs)} fixture verdicts correct "
          f"[{engines}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the host-ledger benchmark of the DNS guard testbed.

Run from the repository root:

    python3 hostbench/run.py --workload legit_steady --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark (a CMake project over
this directory and ../src) into $CARGO_TARGET_DIR/hostbench, or
.bench_build/hostbench when that variable is unset; later runs only
rebuild what changed. Build output goes to stderr. The benchmark binary's
report and its final JSON line go to stdout, and its exit code is
returned. See README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir: str) -> str:
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "hostbench"],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(build_dir, "hostbench")


def main() -> int:
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(root, "hostbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

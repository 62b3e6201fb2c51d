#!/usr/bin/env python3
"""Build the program from this checkout's src/ and run one benchmark workload.

    python3 perfbench/run.py --workload paper-pacm --seed 1 --seconds 20 --trace 0

The harness (perfbench/*.cpp) is compiled together with the program's
libraries in an optimised build under $CARGO_TARGET_DIR (default
.bench_build) of the checkout, so the measured code is always the code
checked out here.  Build output goes to stderr; the harness prints its
summary and, as the last line of stdout, one JSON result.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-pacm", "paper-lru", "tiered-churn")
HARNESS_TIMEOUT_S = 170


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root: Path) -> Path:
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_harness",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except FileNotFoundError:
            fail("cmake is not installed")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench_harness"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {root / 'src'}")
    harness = build(root)

    command = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=HARNESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s", 3)
    lines = done.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"harness exited {done.returncode} without a result line", 3)
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

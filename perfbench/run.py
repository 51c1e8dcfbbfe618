#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload.

    python3 perfbench/run.py --workload suite|mix|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
repository libraries and the driver into $CARGO_TARGET_DIR (default
.bench_build); later runs only check that the build is up to date. Build
output goes to standard error, so the last line of standard output is the
driver's JSON result. Exits non-zero, printing no result, when the build
or the driver fails. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = 4
# Beyond --seconds: set-up, the traced run's layer probe and process start.
DRIVER_SLACK_S = 120


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build; returns the driver's path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--parallel", str(BUILD_JOBS)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench_driver")


def parse_result(stdout):
    """The driver's last stdout line, checked against the result contract."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise ValueError("driver printed no result line")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "mix", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir(), "work")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + DRIVER_SLACK_S)
        if proc.returncode != 0:
            raise ValueError(f"driver exited with {proc.returncode}")
        parse_result(proc.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

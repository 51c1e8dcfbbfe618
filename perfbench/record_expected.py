#!/usr/bin/env python3
"""Regenerate perfbench/expected.txt from the current checkout.

    python3 perfbench/record_expected.py

Runs one untraced pass of `suite`, and of `mix` and `serve` for seeds
0..SEEDS-1, with an empty expected table, and writes every checked value
the runs produced. Only re-record from a commit whose simulated results are
known to be right: the table is what later runs are judged against.
"""
import os
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor

import run

SEEDS = 128  # mix and serve seeds 0..127, as perfbench/README.md documents
JOBS = 4

HEADER = """\
# Expected outputs for the perfbench output check (key value...).
#   suite/<machine>/<benchmark>  simulated cycles under Baseline, Hardware,
#                                Software, SoftwareNT and StrideCentric
#   mix/<machine>/<apps>         per-core cycles under Baseline, Hardware
#                                and SoftwareNT
#   serve-seed/<seed>            serve::run_serve_sim's CRC-32 chain over
#                                the seed's responses
# Regenerate with: python3 perfbench/record_expected.py
"""


def record(driver, workdir, workload, seed):
    empty = os.path.join(workdir, "empty.txt")
    out = os.path.join(workdir, f"{workload}-{seed}.txt")
    subprocess.run([driver, "--workload", workload, "--seed", str(seed),
                    "--seconds", "0", "--trace", "0", "--expected", empty,
                    "--work-dir",
                    os.path.join(workdir, f"work-{workload}-{seed}"),
                    "--record", out],
                   cwd=run.ROOT, stdout=subprocess.DEVNULL, check=True)
    with open(out) as f:
        return f.read().splitlines()


def main():
    driver = run.build()
    jobs = [("suite", 0)] + [(w, s) for w in ("mix", "serve")
                             for s in range(SEEDS)]
    values = {}
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as workdir:
        open(os.path.join(workdir, "empty.txt"), "w").close()
        with ThreadPoolExecutor(JOBS) as pool:
            for lines in pool.map(lambda j: record(driver, workdir, *j), jobs):
                for line in lines:
                    key, value = line.split(" ", 1)
                    if values.setdefault(key, value) != value:
                        raise SystemExit(f"{key}: runs disagree")
    with open(os.path.join(run.HERE, "expected.txt"), "w") as f:
        f.write(HEADER)
        for key in sorted(values):
            f.write(f"{key} {values[key]}\n")


if __name__ == "__main__":
    main()

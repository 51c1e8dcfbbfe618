#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; takes about two minutes (it builds the
driver first if needed, then runs each workload briefly).
"""
import functools
import json
import os
import re
import subprocess
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ("suite", "mix", "serve")

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


@functools.lru_cache(maxsize=None)
def bench(workload, seed=1, trace=0, expected="perfbench/expected.txt"):
    """(result, simulated outcomes) of one shortest run: one pass per kind."""
    driver = run.build()
    proc = subprocess.run(
        [driver, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--expected", expected,
         "--work-dir", os.path.join(run.build_dir(), "test-work")],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=True)
    simulated = next(line for line in proc.stdout.splitlines()
                     if line.startswith("simulated "))
    return run.parse_result(proc.stdout), json.loads(simulated[10:])


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_every_run_reports_exactly_the_declared_metrics(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = bench(workload, trace=trace)
                    self.assertEqual(
                        set(result["metrics"]),
                        {m["name"] for m in BENCHMARK[declared]})
                    units = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)


class OutputCheck(unittest.TestCase):
    def corrupted(self, key):
        """A copy of the expected table with `key`'s value altered."""
        path = os.path.join(run.build_dir(), "test-expected-corrupt.txt")
        with open(os.path.join(run.HERE, "expected.txt")) as f:
            lines = f.read().splitlines()
        found = False
        with open(path, "w") as f:
            for line in lines:
                if line.startswith(key + " "):
                    line, found = key + " 00000000", True
                f.write(line + "\n")
        self.assertTrue(found, key)
        return path

    def test_corrupted_serve_digest_fails_every_request(self):
        result, _ = bench("serve", seed=3,
                          expected=self.corrupted("serve-seed/3"))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_corrupted_suite_cycles_fail_that_benchmark(self):
        result, _ = bench("suite",
                          expected=self.corrupted("suite/amd_phenom_ii/mcf"))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


class Seeds(unittest.TestCase):
    def test_seed_changes_mix_and_serve_inputs_but_not_suite(self):
        for workload in ("mix", "serve"):
            with self.subTest(workload=workload):
                self.assertNotEqual(bench(workload, seed=1)[1],
                                    bench(workload, seed=2)[1])
        self.assertEqual(bench("suite", seed=1)[1], bench("suite", seed=2)[1])


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_runs_simulate_identically(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced = bench(workload, trace=0)[1]
                traced_result, traced = bench(workload, trace=1)
                self.assertEqual(untraced, traced)
                for name, metric in traced_result["metrics"].items():
                    if name.startswith(("sim.", "core.")) and name in untraced:
                        self.assertEqual(metric["value"], untraced[name])

    def test_trace_file_is_chrome_trace_json(self):
        bench("serve", trace=1)
        path = os.path.join(run.build_dir(), "test-work", "trace-serve.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(events)
        names = {e["name"] for e in events}
        self.assertTrue({"serve.run_serve_sim", "serve.solve",
                         "engine.optimize"} <= names)
        for event in events:
            self.assertEqual(event["ph"], "X")
            self.assertGreaterEqual(event["dur"], 0)


if __name__ == "__main__":
    unittest.main()

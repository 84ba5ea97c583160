#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_perfbench.py        (from the checkout root)

Runs every workload at smoke size (--smoke: small solve graphs, 1 s runs)
through perfbench/run.py, untraced and traced, and checks the result line
against BENCHMARK.json, the output checks, that solve_regular_sharded
reproduces solve_regular's digest, the traced run's span file, and that the
benchmark fails without a result when the library sources are missing.
"""
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.rstrip("\n").split("\n")


def result(workload, trace, seed=7):
    proc, lines = run(workload, trace, seed)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: {proc.stderr[-3000:]}")
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, res, metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, res = result(w, 0)
                self.check_result(res, SPEC["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_reports_layers_and_writes_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, res = result(w, 1)
                self.check_result(res, SPEC["per_layer"])
                path = BUILD / "traces" / f"{w}-7.jsonl"
                spans = [json.loads(line) for line in path.read_text().splitlines()]
                self.assertEqual(len(spans), res["metrics"]["trace.spans"]["value"])
                ids = {s["id"] for s in spans}
                for s in spans:
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    self.assertTrue(s["parent"] == 0 or s["parent"] in ids)
                layers = {s["name"].split(".")[0] for s in spans}
                self.assertLessEqual(
                    {"service", "registry", "pool", "sim", "coloring", "graph"},
                    layers)

    def test_sharded_solve_matches_serial(self):
        digests = []
        for w in ("solve_regular", "solve_regular_sharded"):
            lines, res = result(w, 0, seed=3)
            digest = [l for l in lines if "digest=" in l]
            self.assertEqual(len(digest), 1)
            digests.append((re.search(r"digest=(\w+) rounds=(\d+)", digest[0]).groups(),
                            res["metrics"]["palette"]["value"]))
        self.assertEqual(digests[0], digests[1])

    def test_counts_repeat_exactly(self):
        for w in ("service_zipf", "solve_regular"):
            with self.subTest(workload=w):
                a = result(w, 0, seed=5)[1]["metrics"]
                b = result(w, 0, seed=5)[1]["metrics"]
                for name in ("rounds", "palette"):
                    self.assertEqual(a[name]["value"], b[name]["value"])

    def test_fails_without_library_sources(self):
        bare = BUILD / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = run("solve_regular", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        with self.assertRaises(ValueError):
            json.loads(lines[-1])


if __name__ == "__main__":
    unittest.main()

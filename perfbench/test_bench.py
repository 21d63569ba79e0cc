#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

- A quick-mode smoke run of every workload, traced and untraced, passes
  its correctness checks.
- Every metric printed is declared in BENCHMARK.json (end-to-end ones with
  --trace 0, per-layer ones with --trace 1), all of them are printed, and
  every name uses only [A-Za-z0-9_.-].
- Each traced run's segments cover its traced wall time, timed apart
  from the clocks.
- Every untraced run took host-speed probe slices (fleet workers report
  theirs through a file), so its times are normalised.
- Every result carries the host stanza, and compare.py refuses to compare
  results from different hosts.
- Without the repository's sources the benchmark fails without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, seed=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    host = [json.loads(l[5:]) for l in lines if l.startswith("host ")]
    return json.loads(lines[-1]), host, lines


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.results = {}
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                cls.results[(w["name"], trace)] = run(w["name"], trace)

    def test_correct(self):
        for key, (result, _, _) in self.results.items():
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], key)
            self.assertEqual(result["failed"], 0, key)
            self.assertGreaterEqual(result["attempted"], 1, key)

    def test_metric_names_declared(self):
        declared = {0: BENCH["end_to_end"], 1: BENCH["per_layer"]}
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["name"], NAME)
        for (w, trace), (result, _, _) in self.results.items():
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(got, want, (w, trace))

    def test_segments_cover_traced_wall(self):
        # trace.wall_s is timed around the traced calls, independently of
        # the clocks; the benchmark counts each span its segments do not
        # cover (within its slack) in segment_errors.
        for w in BENCH["workloads"]:
            result, _, lines = self.results[(w["name"], 1)]
            m = result["metrics"]
            wall = m["trace.wall_s"]["value"]
            self.assertGreater(m["trace.segments_s"]["value"], 0.0, w["name"])
            self.assertLessEqual(m["trace.segments_s"]["value"],
                                 wall * (1 + 1e-9), w["name"])
            self.assertIn("detail segment_errors=0", lines, w["name"])

    def test_probe_ran(self):
        for w in BENCH["workloads"]:
            _, _, lines = self.results[(w["name"], 0)]
            counts = [int(m.group(1)) for m in
                      (re.search(r"probe_slices=(\d+)", l) for l in lines)
                      if m]
            self.assertEqual(len(counts), 1, w["name"])
            self.assertGreater(counts[0], 0, w["name"])

    def test_host_stanza(self):
        for key, (_, host, _) in self.results.items():
            self.assertEqual(len(host), 1, key)
            for k in ("nproc", "hardware_concurrency", "compiler",
                      "build_type", "threads", "seed", "held_out_seed"):
                self.assertIn(k, host[0], key)
            self.assertLessEqual(host[0]["threads"], 4)

    def test_compare_refuses_other_host(self):
        _, _, lines = self.results[("s4_10d", 0)]
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            os.makedirs(a)
            os.makedirs(b)
            with open(os.path.join(a, "s4_10d-1.txt"), "w") as f:
                f.write("\n".join(lines) + "\n")
            other = [l.replace('"nproc": ', '"nproc": 1000')
                     if l.startswith("host ") else l for l in lines]
            with open(os.path.join(b, "s4_10d-1.txt"), "w") as f:
                f.write("\n".join(other) + "\n")
            compare = [sys.executable, os.path.join(HERE, "compare.py")]
            same = subprocess.run(compare + [a, a], capture_output=True)
            self.assertEqual(same.returncode, 0, same.stderr)
            diff = subprocess.run(compare + [a, b], capture_output=True)
            self.assertEqual(diff.returncode, 8, diff.stderr)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                BENCH["command"] + ["--workload", "s4_10d", "--seed", "1",
                                    "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3] [--save DIR]

Runs the benchmark once per seed (seeds default to 1..10) with --trace 0
and prints, for every end-to-end metric, the median and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json. A
benchmark is steady when every spread but setup_s is below a third of its
bound. With --save, each run's full output is kept as DIR/NAME-SEED.txt,
which compare.py reads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default=",".join(map(str, range(1, 11))))
    ap.add_argument("--save")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if args.save:
            os.makedirs(args.save, exist_ok=True)
            path = os.path.join(args.save, "%s-%d.txt" % (args.workload, seed))
            with open(path, "w") as f:
                f.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr))
            return 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: correct=%s %s" % (
            seed, result["correct"],
            " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items())),
              flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        print("%-16s median=%-12.6g spread=%.4f bound=%.2f third=%.4f %s" % (
            m["name"], med, spread, m["bound"], m["bound"] / 3,
            "ok" if spread < m["bound"] / 3 else "WIDE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two sets of saved benchmark outputs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds saved stdout files of `run.py --trace 0` runs (for
example from `spread.py --save DIR`). For every workload and end-to-end
metric it prints both medians and the change, and marks a regression when
the new median is worse than the base median by more than the metric's
bound in BENCHMARK.json.

Exit codes: 0 no regression; 7 a regression; 8 the two sets come from
different hosts (nproc, hardware_concurrency, compiler, build type or
thread count differ), which are never compared; 2 unusable input.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_KEYS = ("nproc", "hardware_concurrency", "compiler", "build_type",
             "threads")


def load(directory):
    """{workload: {"host": stanza, "metrics": {name: [values]}}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.txt"))):
        with open(path) as f:
            lines = f.read().strip().splitlines()
        hosts = [json.loads(l[5:]) for l in lines if l.startswith("host ")]
        if not hosts or not lines:
            continue
        host, result = hosts[-1], json.loads(lines[-1])
        entry = runs.setdefault(host["workload"],
                                {"host": host, "metrics": {}})
        if any(entry["host"][k] != host[k] for k in HOST_KEYS):
            sys.exit("error: %s mixes hosts within one set" % path)
        for name, m in result["metrics"].items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    return runs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("error: no saved runs found", file=sys.stderr)
        return 2
    for w in sorted(set(base) & set(new)):
        diff = [k for k in HOST_KEYS if base[w]["host"][k] != new[w]["host"][k]]
        if diff:
            print("error: %s runs come from different hosts (%s); "
                  "refusing to compare" % (w, ", ".join(diff)),
                  file=sys.stderr)
            return 8
    regressed = False
    for w in sorted(set(base) & set(new)):
        for m in bench["end_to_end"]:
            b = base[w]["metrics"].get(m["name"])
            n = new[w]["metrics"].get(m["name"])
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            worse = change > m["bound"] if m["better"] == "lower" \
                else -change > m["bound"]
            regressed = regressed or worse
            print("%-12s %-16s base=%-12.6g new=%-12.6g change=%+.3f "
                  "bound=%.2f n=%d/%d %s" % (
                      w, m["name"], mb, mn, change, m["bound"], len(b),
                      len(n), "REGRESSION" if worse else "ok"))
    return 7 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

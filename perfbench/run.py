#!/usr/bin/env python3
"""Build and run the BCE end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--quick]

Run from the root of a checkout. The benchmark is a CMake project of its
own (perfbench/CMakeLists.txt) that compiles the checkout's src/ tree; it is
built into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
before every run, which is a no-op when nothing changed. Build output goes
to stderr; the benchmark's own output, whose last line is the JSON result,
goes to stdout. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must end within 180 s; a run that hangs is killed first.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("error: benchmark build failed: " + " ".join(cmd))
    return os.path.join(bdir, "bce_bench")


def main():
    binary = build()
    cmd = [binary] + sys.argv[1:] + ["--root", ROOT]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("error: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the ckptwf benchmark.

    python3 perfbench/run.py --workload (figures|faults|serve) --seed N \
        --seconds S --trace (0|1)

Run from the root of a checkout. Builds the benchmark and the ckptwf
binary from source with dune (into _perfbench/build), then runs one
workload in a fresh process. The last line of standard output is the
result JSON of perfbench/bench.ml. Exits non-zero, without a result,
when the checkout cannot be built.
"""

import os
import signal
import subprocess
import sys

BUILD = os.path.join("_perfbench", "build")
TARGETS = ["perfbench/bench.exe", "bin/ckptwf.exe"]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a ckptwf checkout (no dune-project or lib/ here)")
    os.makedirs("_perfbench", exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD),
           "--profile", "release", "--display", "quiet"] + TARGETS
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {done.returncode}")


def main():
    build()
    exe = os.path.join(BUILD, "default", "perfbench", "bench.exe")
    ckptwf = os.path.join(BUILD, "default", "bin", "ckptwf.exe")
    args = [exe] + sys.argv[1:] + ["--ckptwf", ckptwf]
    # its own process group, so that a stuck run can be stopped together
    # with the daemon it started
    proc = subprocess.Popen(args, process_group=0)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: the benchmark did not finish within 170 s")
    sys.exit(code)


if __name__ == "__main__":
    main()

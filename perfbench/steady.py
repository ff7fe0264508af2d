#!/usr/bin/env python3
"""Steadiness tool and smoke test for the ckptwf benchmark.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --smoke

Run from the root of a checkout. The first form runs each workload ten
times, each run a fresh process with its own seed (1..10) and the run
length of BENCHMARK.json, with the workloads interleaved (figures,
faults, serve, figures, ...), and prints for every end-to-end metric
its median, first and third quartile, and the spread (Q3 - Q1) /
median, as statistics.quantiles(values, n=4) gives them. The
end-to-end bounds of BENCHMARK.json were set from these spreads.

--smoke runs every workload for two seconds with and without tracing,
requires every check to pass and every metric to be printed, then runs
selftest.exe, which shows that each output check rejects a perturbed
value.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["figures", "faults", "serve"]
RUNS = 10


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def steady():
    s = spec()
    names = [m["name"] for m in s["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    results = {w: [] for w in WORKLOADS}
    for seed in range(1, RUNS + 1):
        for w in WORKLOADS:
            r = run_once(w, seed, s["run_seconds"], 0)
            results[w].append(r)
            vals = " ".join(f"{n}={r['metrics'][n]['value']:.4g}" for n in names)
            print(f"# {w} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {vals}", flush=True)
    for w in WORKLOADS:
        rs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"\n{w}: {len(rs)} runs, all correct: {all(r['correct'] for r in rs)}, "
              f"failed share(s): {shares}")
        print(f"  {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for n in names:
            med, q1, q3, sp = spread([r["metrics"][n]["value"] for r in rs])
            print(f"  {n:14} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.4f} {bounds[n]:>6}")


def smoke():
    s = spec()
    ok = True
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run_once(w, 1, 2, trace)
            missing = [m["name"] for m in s[key] if m["name"] not in r["metrics"]]
            good = r["correct"] and r["failed"] == 0 and r["attempted"] >= 1 and not missing
            ok &= good
            print(f"smoke {w} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"attempted={r['attempted']} failed={r['failed']} missing={missing}")
    exe = os.path.join(ROOT, "_perfbench", "build", "default", "perfbench", "selftest.exe")
    subprocess.run(["dune", "build", "--root", ".", "--build-dir",
                    os.path.join(ROOT, "_perfbench", "build"), "--profile", "release",
                    "--display", "quiet", "perfbench/selftest.exe"], cwd=ROOT, check=True)
    ok &= subprocess.run([exe], cwd=ROOT).returncode == 0
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--smoke", action="store_true")
    if p.parse_args().smoke:
        sys.exit(smoke())
    steady()


if __name__ == "__main__":
    main()

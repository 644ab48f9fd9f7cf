#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

    python3 perfbench/spread.py --seeds 1-10

For each seed, runs every workload in BENCHMARK.json once (alternating
workloads, so a drift in host speed hits all of them alike) through its
command, untraced, for its run_seconds. Then, per workload and end-to-end
metric, prints the median of the values and the distance between the
first and third quartile as a share of the median, against the metric's
bound. Exits 1 if a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10", type=seed_list)
    args = p.parse_args()
    values = {w: {} for w in workloads}
    failed = False
    for seed in args.seeds:
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {r.returncode}\n{r.stdout}{r.stderr}")
                failed = True
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect")
                failed = True
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: ok", flush=True)
    for w in workloads:
        print(f"\n{w}")
        for metric in bench["end_to_end"]:
            vs = values[w].get(metric["name"], [])
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = metric["bound"]
            ok = spread <= bound
            failed |= not ok
            print(f"  {metric['name']:20} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound:5.2f}  {'ok' if ok else 'TOO WIDE'}"
                  f"{'  (<1/3 bound)' if spread < bound / 3 else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

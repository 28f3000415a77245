#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every metric this prints the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median -- the figure a metric's ``bound`` in
``BENCHMARK.json`` is compared against.

Usage, from the repository root:

    python3 perfbench/spread.py --workload catalog_campaign --seeds 1-10
    python3 perfbench/spread.py --workload juliet_table3 --seeds 1-5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        t0 = time.time()
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            return 1
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        rounds = [l for l in lines[:-1] if l.startswith("rounds:")]
        print(f"seed {seed} ({time.time() - t0:.0f}s) {' '.join(rounds)}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':34} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        share = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        # The spread of setup_s is not held to its bound; only its median is.
        steady = not bound or name == "setup_s" or share <= bound / 3
        flag = "" if steady else " <- above a third of its bound"
        print(f"{name:34} {med:12.6g} {share:10.4f} {bound or '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

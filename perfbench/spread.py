#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, for every end-to-end metric,
its median and the distance between its first and third quartiles as a
share of the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_100x10 --seeds 1-10 \
        [--bin PATH] [--seconds N]

Without --bin it runs the command from BENCHMARK.json. Run it from the
repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--bin", help="prebuilt perfbench executable")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            command
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"\n{'metric':<16} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{k:<16} {med:>12.6g} {spread:>11.4f} {bounds.get(k, float('nan')):>6}")


if __name__ == "__main__":
    main()

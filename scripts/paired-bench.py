#!/usr/bin/env python3
"""Paired before/after runs of one perfbench workload.

Runs two prebuilt perfbench executables (a base and a change) on the
same seeds, one pair per seed, alternating which of the two runs first.
Every run is untraced. For each end-to-end metric in BENCHMARK.json it
prints both medians with their quartiles, how many pairs the change
won, and whether the change's median is worse than the base's by more
than the metric's bound. The verdict judges the pairs themselves: the
median of the per-pair log ratios ln(change/base) and a sign-test
interval for it (order statistics of the sorted ratios, at the smallest
coverage of at least 95 % the pair count allows, or the full range
below 6 pairs). An interval wholly on the better side of 0 is a gain,
one wholly on the worse side a loss, and any other "no". Each pair runs
both sides on one seed, so the seed-to-seed spread of a metric does not
count as noise.
It also checks that both sides report the same output digest per seed
and that no operation failed. When the info record's `op_kinds` names
more than one op kind (serving's arrival, departure, failure, ...
steps), it also prints each kind's median p50 on both sides and how
many pairs the change won.

    python3 scripts/paired-bench.py --base PATH --change PATH \\
        --workload des_uplinks_200x50 --seeds 21-30 [--seconds N]

Run it from the repository root. It writes nothing; build each side's
perfbench with `cargo build --release --offline --manifest-path
perfbench/Cargo.toml` in its own checkout and pass the executables.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(binary, workload, seed, seconds):
    """One untraced run: (metric values, output digest, failed ops,
    p50 per op kind)."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{binary} seed {seed}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{binary} seed {seed}: incorrect result {result}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    kinds = {k: v["p50"] for k, v in info.get("op_kinds", {}).items()}
    return values, info.get("digest"), result["failed"], kinds


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0]
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return q1, q3


def sign_test_interval(values):
    """(lo, hi, coverage): the order-statistic interval for the median of
    `values` with the smallest coverage of at least 95 %, or the full
    range (and its coverage) when too few values allow 95 %."""
    xs = sorted(values)
    n = len(xs)
    # P(Binomial(n, 1/2) <= j) for j = 0 .. n
    cdf = []
    total = 0
    for j in range(n + 1):
        total += math.comb(n, j)
        cdf.append(total / 2 ** n)
    k = 1
    while k + 1 <= n - k and 1 - 2 * cdf[k] >= 0.95:
        k += 1
    return xs[k - 1], xs[n - k], 1 - 2 * cdf[k - 1]


def pair_verdict(base, change, lower):
    """Median per-pair ln(change/base), its sign-test interval and the
    verdict it gives, over the pairs where both sides are positive."""
    ratios = [math.log(c / b) for b, c in zip(base, change) if b > 0 and c > 0]
    if not ratios:
        return "n/a"
    lo, hi, coverage = sign_test_interval(ratios)
    better = hi < 0 if lower else lo > 0
    worse = lo > 0 if lower else hi < 0
    verdict = "gain" if better else ("loss" if worse else "no")
    return (f"{statistics.median(ratios):>+8.4f} [{lo:>+8.4f}, {hi:>+8.4f}]"
            f" {coverage:>6.1%} {verdict:>5}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True, help="perfbench before the change")
    ap.add_argument("--change", required=True, help="perfbench with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    sides = {"base": {}, "change": {}}
    # kind -> [(base p50, change p50)] over the pairs where both ran it
    kind_pairs = {}
    failed = {"base": 0, "change": 0}
    digests_differ = []
    for i, seed in enumerate(seeds_of(args.seeds)):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        digests = {}
        kinds = {}
        for side in order:
            binary = args.base if side == "base" else args.change
            values, digest, n_failed, kinds[side] = run_once(
                binary, args.workload, seed, seconds)
            digests[side] = digest
            failed[side] += n_failed
            for k, v in values.items():
                sides[side].setdefault(k, []).append(v)
        for kind in kinds["base"].keys() & kinds["change"].keys():
            kind_pairs.setdefault(kind, []).append(
                (kinds["base"][kind], kinds["change"][kind]))
        if digests["base"] != digests["change"]:
            digests_differ.append(seed)
        row = "  ".join(
            f"{m['name']}={sides['base'][m['name']][-1]:.6g}"
            f"->{sides['change'][m['name']][-1]:.6g}" for m in metrics)
        print(f"seed {seed} ({order[0]} first, digest {digests['base']}"
              f"{'' if seed not in digests_differ else ' != ' + str(digests['change'])}):"
              f" {row}", flush=True)

    n = len(seeds_of(args.seeds))
    print(f"\n{args.workload}, {n} pairs, {seconds} s per run, untraced")
    print(f"{'metric':<14} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'delta':>8} {'won':>6} {'bound':>6} {'within':>6}"
          f"   {'ln(c/b) median [sign-test interval] cover':>43} {'verdict':>5}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        lower = m["better"] == "lower"
        base, change = sides["base"][name], sides["change"][name]
        b_med, c_med = statistics.median(base), statistics.median(change)
        b_q1, b_q3 = quartiles(base)
        c_q1, c_q3 = quartiles(change)
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        delta = (c_med - b_med) / b_med if b_med else float("inf")
        gain = (b_med - c_med) if lower else (c_med - b_med)
        worse = -gain / b_med if b_med else float("inf")
        print(f"{name:<14} {b_med:>12.6g} [{b_q1:>8.5g}, {b_q3:>8.5g}]"
              f" {c_med:>12.6g} [{c_q1:>8.5g}, {c_q3:>8.5g}]"
              f" {delta:>+8.2%} {won:>3}/{n:<2} {bound:>6}"
              f" {'yes' if worse <= bound else 'NO':>6}"
              f"   {pair_verdict(base, change, lower)}")
    if len(kind_pairs) > 1:
        print(f"\n{'op kind p50':<14} {'base median [q1, q3]':>34}"
              f" {'change median [q1, q3]':>34} {'delta':>8} {'won':>6}")
        for kind, pairs in sorted(kind_pairs.items()):
            base = [b for b, _ in pairs]
            change = [c for _, c in pairs]
            b_med, c_med = statistics.median(base), statistics.median(change)
            b_q1, b_q3 = quartiles(base)
            c_q1, c_q3 = quartiles(change)
            won = sum(c < b for b, c in pairs)
            delta = (c_med - b_med) / b_med if b_med else float("inf")
            print(f"{kind:<14} {b_med:>12.6g} [{b_q1:>8.5g}, {b_q3:>8.5g}]"
                  f" {c_med:>12.6g} [{c_q1:>8.5g}, {c_q3:>8.5g}]"
                  f" {delta:>+8.2%} {won:>3}/{len(pairs):<2}")
    print(f"failed ops: base {failed['base']}, change {failed['change']}")
    if digests_differ:
        print(f"output digests differ on seeds {digests_differ}")
        sys.exit(1)
    print("output digests equal on every seed")


if __name__ == "__main__":
    main()

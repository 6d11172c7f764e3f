#!/usr/bin/env python3
"""Steadiness check: interleaved A/B sets of one build of the benchmark.

Runs the command in BENCHMARK.json as two sets, A and B, over seeds
1..N. Runs alternate between the sets (A first on odd seeds, B first on
even ones) and between workloads, so a slow phase of the host lands on
both sets alike. For every workload x end-to-end metric it prints each
set's median and quartiles, the set's spread (quartile distance over
median, as statistics.quantiles(n=4) gives it) and the gap between the
set medians (B over A, signed in the metric's worse direction), each
against the metric's bound.

Run from the root of a checkout:

    python3 perfbench/ab.py --seeds 10                          # gated workloads
    python3 perfbench/ab.py --seeds 10 --workloads serve_fresh  # any workloads

Exits 1 if a run fails, or if a spread or the size of a gap exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads",
                    help="comma-separated workloads (default: those in BENCHMARK.json)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    sets = "AB"
    runs = {(s, w): [] for s in sets for w in workloads}
    for seed in range(1, args.seeds + 1):
        order = sets if seed % 2 else sets[::-1]
        for w in workloads:
            for s in order:
                metrics = run_once(bench, w, seed)
                runs[(s, w)].append(metrics)
                shown = "  ".join(f"{k}={v:.6g}" for k, v in metrics.items())
                print(f"[{s}] {w} seed {seed}: {shown}", flush=True)

    ok = True
    print()
    print(f"{'workload':<13} {'metric':<12} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'gap':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {s: summary([r[name] for r in runs[(s, w)]]) for s in sets}
            a, b = stats["A"][0], stats["B"][0]
            worse = (b - a) if m["better"] == "lower" else (a - b)
            gap = worse / a if a else float("inf")
            for s in sets:
                med, q1, q3, spread = stats[s]
                checks = [spread <= bound]
                if s == "B":
                    checks.append(abs(gap) <= bound)
                verdict = "ok" if all(checks) else "OVER BOUND"
                if spread > bound / 3:
                    verdict += " (spread above a third of the bound)"
                ok &= all(checks)
                gap_txt = f"{gap:+8.4f}" if s == "B" else " " * 8
                print(f"{w:<13} {name:<12} {s:<3} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                      f" {spread:8.4f} {gap_txt} {bound:6.3f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

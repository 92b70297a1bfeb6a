#!/usr/bin/env python3
"""Runs each workload repeatedly, one seed per run, and prints for every
metric the median, the quartiles, the min-max range and the spread
(quartile distance as a share of the median), next to the metric's bound
in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S]
                                    [--workloads a,b] [--overhead]

Run it from the repository root. Run i uses seed i (1..runs). With
--overhead it instead alternates untraced and traced runs and prints the
tracing overhead on op_ms_p50.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode}): {proc.stdout[-2000:]}")
    result = json.loads(lines[-1])
    extra = {}
    for line in lines:
        if line.startswith("traced_op_ms_p50: "):
            extra["traced_op_ms_p50"] = float(line.split(": ", 1)[1])
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
            for key, value in host.items():
                if key.endswith("_loop_ms"):
                    extra["host." + key] = value
    return result, extra


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, min(values), max(values), spread


def overhead(workloads, runs, seconds):
    """Untraced and traced runs in alternating order, one pair per seed;
    the overhead is the traced median op time over the untraced one."""
    print(f"{'workload':14s} {'untraced':>10s} {'traced':>10s} {'overhead':>9s}")
    for workload in workloads:
        plain, traced = [], []
        for seed in range(1, runs + 1):
            for trace in ((0, 1) if seed % 2 == 1 else (1, 0)):
                result, extra = run_once(workload, seed, seconds, trace)
                if trace:
                    traced.append(extra["traced_op_ms_p50"])
                else:
                    plain.append(result["metrics"]["op_ms_p50"]["value"])
        p, t = statistics.median(plain), statistics.median(traced)
        print(f"{workload:14s} {p:10.4g} {t:10.4g} {t / p - 1:+9.1%}",
              flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads")
    ap.add_argument("--overhead", action="store_true",
                    help="alternate untraced and traced runs and print the "
                         "tracing overhead on op_ms_p50")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    if args.overhead:
        return overhead(workloads, args.runs, seconds)
    for workload in workloads:
        samples = {}
        failed_share = set()
        for seed in range(1, args.runs + 1):
            start = time.monotonic()
            result, extra = run_once(workload, seed, seconds, 0)
            wall = time.monotonic() - start
            failed_share.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            for name, v in extra.items():
                samples.setdefault(name, []).append(v)
            print(f"  {workload} seed {seed}: attempted "
                  f"{result['attempted']} failed {result['failed']} "
                  f"in {wall:.1f} s",
                  file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.runs} runs x {seconds} s, failed share "
              f"{sorted(failed_share)}")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>7s} {'bound':>6s}")
        for name, values in samples.items():
            med, q1, q3, lo, hi, spread = summarize(values)
            bound = bounds.get(name)
            print(f"  {name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{lo:12.6g} {hi:12.6g} {spread:7.4f} "
                  f"{'' if bound is None else bound:>6}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

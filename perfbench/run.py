#!/usr/bin/env python3
"""hpfc's benchmark: builds the hpfc library and the benchmark driver from
source, runs one workload for a fixed time, and prints every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. The build lives in .bench_build/ (created
on first use). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics (computed from the run's trace) with
--trace 1. The exit code is 0 only when every checked operation passed.

A run is split into PARTS driver processes, run one after another, each
measuring an equal share of the run length. Code and heap addresses are
randomized per process, and on this code one process's op times can sit
up to 40% apart from the next one's; pooling several processes per run
keeps one address layout from setting the run's figures.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import trace_table  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("remap_loop", "adi_proc", "ckpt_restore", "compile_wide")
PARTS = 8
# Allowed beyond a part's measured time for its set-ups, checks and probes.
DRIVER_SLACK_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the library and driver; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "driver", "compiler.hpp")):
        log("perfbench: hpfc sources (src/) not found next to perfbench/")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def source_digest():
    """SHA-1 over the library and benchmark sources: identifies the
    program version when the checkout carries no git metadata."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as f:
        ref = f.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        return ref[5:]
    return ref


def driver(args, seconds=0.0):
    """Runs the driver, measuring `seconds`; returns (exit code, stdout
    lines)."""
    proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + DRIVER_SLACK_S)
    return proc.returncode, proc.stdout.splitlines()


def print_host():
    """The host reference: not a metric, printed so that a host swing can
    be told apart from a change in the program."""
    _, lines = driver(["--host"])
    host = json.loads(lines[-1][len("host: "):])
    host["commit"] = commit()
    host["source_sha1"] = source_digest()
    print("host: " + json.dumps(host))


def end_to_end(parts):
    """The end-to-end metrics of one run from its parts' raw figures."""
    ops = sum(p["ops"] for p in parts)
    op_ms = [v for p in parts for v in p["op_ms"]]
    compile_ms = [v for p in parts for v in p["compile_ms"]]
    journal = sum(p["journal_bytes"] for p in parts) / ops
    probe = [p["probe_journal_bytes"] for p in parts
             if p["probe_journal_bytes"] > 0]
    if probe:
        journal = probe[0]
    metrics = {
        "setup_s": (statistics.median(v for p in parts for v in p["setup_s"]),
                    "s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "compile_ms_p50": (statistics.median(compile_ms), "ms"),
        "elements_copied": (sum(p["elements"] for p in parts) / ops,
                            "count/op"),
        "remote_messages": (sum(p["messages"] for p in parts) / ops,
                            "count/op"),
        "copies_performed": (sum(p["copies"] for p in parts) / ops,
                             "count/op"),
        "sim_time_ms": (sum(p["sim_ms"] for p in parts) / ops, "model-ms/op"),
        "store_peak_mb": (max(p["peak_bytes"] for p in parts) / 1e6, "MB"),
        "host_rss_mb": (max(p["rss_kb"] for p in parts) / 1024, "MB"),
        "journal_mb": (journal / 1e6, "MB/op"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="only check that the output checks detect faults")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not build():
        log("perfbench: build failed")
        return 2

    scratch = os.path.join(ROOT, ".bench_build", "scratch",
                           f"{args.workload or 'selftest'}-{os.getpid()}")
    try:
        print_host()
        # The checks must detect planted faults before their verdicts on
        # this run count.
        code, lines = driver(["--selftest", "--scratch", scratch])
        for line in lines:
            print(line)
        if code != 0 or args.selftest:
            return code

        parts = []
        events = []
        code = 0
        for i in range(PARTS):
            trace_path = os.path.join(scratch, f"trace-{i}.json")
            part_args = ["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds / PARTS),
                         "--trace", str(args.trace), "--scratch", scratch,
                         "--trace-out", trace_path]
            if i == PARTS - 1:
                part_args.append("--post")
            part_code, lines = driver(part_args, args.seconds / PARTS)
            code = code or part_code
            if not lines or not lines[-1].startswith("{"):
                log(f"perfbench: part {i} printed no result")
                return part_code or 4
            parts.append(json.loads(lines[-1]))
            if args.trace:
                with open(trace_path) as f:
                    for e in json.load(f)["traceEvents"]:
                        e["pid"] = i + 1
                        events.append(e)

        result = {"correct": code == 0 and all(p["failed"] == 0
                                               for p in parts),
                  "attempted": sum(p["attempted"] for p in parts),
                  "failed": sum(p["failed"] for p in parts)}
        if args.trace:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            with open(os.path.join(traces, f"{args.workload}.json"), "w") as f:
                json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
            print(f"traced_op_ms_p50: {trace_table.traced_op_ms(events)!r}")
            result["metrics"] = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in trace_table.per_layer(events).items()}
        else:
            result["metrics"] = end_to_end(parts)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

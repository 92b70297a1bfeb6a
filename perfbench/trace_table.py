#!/usr/bin/env python3
"""Turns a benchmark trace (Chrome trace-event JSON written by
perfbench_driver --trace 1) into hpfc's per-layer metrics.

    python3 perfbench/trace_table.py TRACE.json

Spans and their arguments are recorded around each public library call;
see README.md for the layer -> end-to-end metric map.
"""
import json
import statistics
import sys


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer(events):
    """Returns {metric name: (value, unit)} computed from the events of a
    run's trace (the parts of one run pooled, one pid per part)."""
    by_name = {}
    for e in events:
        by_name.setdefault(e["name"], []).append(e)

    def durs_ms(name):
        return [e["dur"] / 1e3 for e in by_name.get(name, [])]

    def arg_max(name, key):
        return max((e["args"][key] for e in by_name.get(name, [])), default=0)

    runs = by_name.get("run_parallel", [])
    op_runs = [e["args"] for e in runs if e["args"]["phase"] == "op"]
    snap_runs = [e["args"] for e in runs if e["args"]["snapshot_runs"] > 0]

    def op_median(key):
        return _median([a[key] for a in op_runs])

    def op_mean(key):
        return _mean([a[key] for a in op_runs])

    # opt.passes_ms: hoist + useless-removal/maybe-live, per compile.
    passes = {}
    for name in ("hoist", "opt"):
        for e in by_name.get(name, []):
            cid = (e["pid"], e["args"]["compile"])
            passes[cid] = passes.get(cid, 0.0) + e["dur"] / 1e3

    probes = by_name.get("owned_runs", [])
    runs_per_elem = 0.0
    if probes:
        args = probes[0]["args"]
        runs_per_elem = args["runs"] / args["elements"]

    unphased = [a["exec_ms"] - a["pack_ms"] - a["exchange_ms"] -
                a["unpack_ms"] - a["snapshot_ms"] for a in op_runs]

    return {
        "hpf.parse_ms": (_median(durs_ms("parse")), "ms"),
        "remap.analyze_ms": (_median(durs_ms("analyze")), "ms"),
        "remap.versions": (arg_max("analyze", "versions"), "count"),
        "opt.passes_ms": (_median(list(passes.values())), "ms"),
        "opt.removed_remaps": (arg_max("opt", "removed"), "count"),
        "codegen.generate_ms": (_median(durs_ms("codegen")), "ms"),
        "codegen.ops": (arg_max("codegen", "ops"), "count"),
        "mapping.runs_per_elem": (runs_per_elem, "runs/elem"),
        "mapping.owned_iter_ms": (_median(durs_ms("owned_runs")), "ms"),
        "redist.pack_segments": (op_mean("segments"), "count/op"),
        "redist.plan_misses": (op_mean("plan_misses"), "count/op"),
        "runtime.exec_ms": (op_median("exec_ms"), "ms"),
        "runtime.pack_ms": (op_median("pack_ms"), "ms"),
        "runtime.unpack_ms": (op_median("unpack_ms"), "ms"),
        "runtime.unphased_ms": (_median(unphased), "ms"),
        "runtime.host_allocs": (op_mean("host_allocs"), "count/op"),
        "runtime.minor_faults": (op_mean("minor_faults"), "count/op"),
        "runtime.sys_ms": (op_mean("sys_ms"), "ms/op"),
        "runtime.live_reuses": (op_mean("live_reuses"), "count/op"),
        "exec.spawn_ms": (_median(durs_ms("backend_start")), "ms"),
        "exec.ping_us": (_median(durs_ms("ping")) * 1e3, "us"),
        "exec.exchange_ms": (op_median("exchange_ms"), "ms"),
        "exec.wire_mb": (op_mean("wire_bytes") / 1e6, "MB/op"),
        "exec.wire_msgs": (op_mean("wire_msgs"), "count/op"),
        "net.supersteps": (op_mean("supersteps"), "count/op"),
        "net.remote_mb": (op_mean("remote_bytes") / 1e6, "MB/op"),
        "persist.snapshot_ms": (
            _median([a["snapshot_ms"] for a in snap_runs]), "ms"),
        "persist.runs_written": (
            _mean([a["snapshot_runs"] for a in snap_runs]), "count/op"),
        "persist.restore_ms": (_median(durs_ms("restore")), "ms"),
    }


def traced_op_ms(events):
    """Median wall time of the traced run's ops (for tracing overhead)."""
    return _median([e["dur"] / 1e3 for e in events if e["name"] == "op"])


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        events = json.load(f)["traceEvents"]
    for name, (value, unit) in per_layer(events).items():
        print(f"{name:24s} {value:14.6g} {unit}")
    print(f"{'traced op_ms_p50':24s} {traced_op_ms(events):14.6g} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""EPRONS benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/workloads.cpp
and the program's src/ libraries into .bench_build/ (RelWithDebInfo, the
repository default). Each run then drives one workload for about S seconds
of passes, checks the outputs (perfbench/golden.json, invariants, and
pass-to-pass determinism), prints a readable report, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones.
See perfbench/README.md for the workloads and every metric's definition.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

sys.dont_write_bytecode = True  # leave no cache files in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_workloads")
# The layers (src/ modules) each workload exercises; per-layer metrics of
# the other layers read 0.
LAYERS = {
    "serve-diurnal": {"serve", "sim", "net", "dvfs", "topo", "core",
                      "consolidate", "obs"},
    "cluster-deep": {"sim", "net", "dvfs", "topo", "consolidate", "obs"},
    "plan-diurnal": {"core", "consolidate", "schedule", "obs"},
    "plan-exact": {"lp", "consolidate", "obs"},
}
WORKLOADS = tuple(LAYERS)
DEADLINE_S = 175.0  # a run must end within 180 s once the build exists


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("program sources not found: run from the repository "
                         "root (src/CMakeLists.txt is missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def environment():
    """What a result depends on besides the seed: source version, compiler,
    build type, cores, planner workers (recorded by the run) and load."""
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    return {
        "commit": commit or "none (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "nproc": os.cpu_count(),
        "host": platform.machine(),
        "loadavg": " ".join("%.2f" % x for x in os.getloadavg()),
    }


def run_workload(args, raw_path, trace_dir, started):
    for old in glob.glob(os.path.join(trace_dir, "trace_*.json")):
        os.remove(old)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--trace-dir", trace_dir]
    budget = max(30.0, DEADLINE_S - (time.monotonic() - started))
    subprocess.run(cmd, check=True, timeout=budget)
    return benchlib.load_json(raw_path)


def stated(samples, q, scale, note, name, what):
    """The q-quantile of `samples` times `scale`, noting its sample count;
    0 with a note when the samples cannot state it."""
    if not samples:
        return 0.0
    try:
        value, n = benchlib.percentile(samples, q)
    except benchlib.TooFewSamples as e:
        note[name] = "0: not stated, %s" % e
        return 0.0
    note[name] = "%d %s" % (n, what)
    return value * scale


def pass_wall_s(p):
    """A pass's wall time, normalised for the host's speed."""
    return benchlib.normalized(p["wall_s"], p["burst_s"])


def setups_s(raw, passes):
    """Every set-up time of the run, normalised for the host's speed."""
    pairs = list(zip(raw["setup_s"], raw["setup_burst_s"]))
    pairs += [(p["setup_s"], p["setup_burst_s"]) for p in passes]
    return [benchlib.normalized(s, b) for s, b in pairs]


def end_to_end(raw):
    untraced = [p for p in raw["passes"] if not p["traced"]]
    return {
        "wall_s": (median([pass_wall_s(p) for p in untraced]), "s"),
        "ops_per_s": (median([p["ops"] / pass_wall_s(p) for p in untraced]),
                      "1/s"),
        "setup_s": (median(setups_s(raw, untraced)), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "modeled_power_w": (untraced[0]["values"]["modeled_power_w"], "W"),
    }


def per_layer(raw, trace_dir, note):
    """Per-layer metrics of a trace run, with the per-span-name time split
    of the traced passes. A metric of a layer the workload does not
    exercise reads 0."""
    passes = raw["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = passes[0]
    values = first["values"]
    counters = first["counters"]
    probes = raw.get("probes", {})
    serving = raw["workload"] == "serve-diurnal"

    # Span durations by name over all traced passes, and each traced
    # pass's total and self time per span name (us).
    durations = {}
    split = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace_*.json"))):
        spans = benchlib.spans_from_chrome(benchlib.load_json(path))
        totals = {}
        # Reference bursts run inside some program spans (a serving run's
        # record sink triggers them); they are not the program's time.
        own = benchlib.durations_excluding(spans, "bench.host_speed")
        self_us = benchlib.self_times(spans)
        for span, dur, own_self in zip(spans, own, self_us):
            durations.setdefault(span["name"], []).append(dur)
            total = totals.setdefault(span["name"], [0.0, 0.0])
            total[0] += dur
            total[1] += own_self
        split.append(totals)

    def span_s(name):
        """Median over traced passes of the summed duration of `name`."""
        return median(
            [t.get(name, [0.0])[0] for t in split]) / 1e6

    def counter(name):
        return float(counters.get(name, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    def op_samples(name):
        return [v for p in untraced for v in p["op_ms"].get(name, [])]

    # run_epoch latency: the benchmark's own per-call timing where it calls
    # run_epoch itself, else the controller's "epoch" spans.
    epoch_ms = (op_samples("run_epoch")
                or [us / 1e3 for us in durations.get("epoch", [])])

    def median_value(name):
        return median([p["values"].get(name, 0.0) for p in untraced])

    arrivals = values.get("arrivals", 0.0)
    run_s = span_s("serving_run")
    replan_s = span_s("epoch") if serving else 0.0
    arrival_ns = probes.get("serve.arrival_next_ns", 0.0)
    if serving:
        des_s = run_s - replan_s - arrivals * arrival_ns / 1e9
    else:
        des_s = span_s("sim_run")
    subqueries = values.get("subqueries", 0.0)
    sample_ns = probes.get("net.sample_ns", 0.0)
    nodes = values.get("milp_nodes", 0.0)
    solves = len(first["op_ms"].get("milp", []))
    plain = median([pass_wall_s(p) for p in untraced])
    with_trace = median([pass_wall_s(p) for p in traced])
    if "modeled_p99_count" in values:
        note["sim.modeled_p99_ms"] = "%d queries" % values["modeled_p99_count"]
    note["obs.trace_overhead_pct"] = "%d traced vs %d untraced passes" % (
        len(traced), len(untraced))

    m = {
        "serve.arrival_next_ns": (arrival_ns, "ns"),
        "serve.arrivals": (arrivals, "count"),
        "serve.admit_frac": (ratio(values.get("admitted", 0.0), arrivals),
                             "ratio"),
        "serve.run_s": (run_s, "s"),
        "serve.replan_s": (replan_s, "s"),
        "sim.des_s": (des_s, "s"),
        "sim.subqueries": (subqueries, "count"),
        "sim.dvfs_selections": (counter("sim.dvfs_selections"), "count"),
        "sim.ns_per_subquery": (ratio(des_s * 1e9, subqueries), "ns"),
        "sim.event_ns": (probes.get("sim.event_ns", 0.0), "ns"),
        "sim.modeled_p99_ms": (values.get("modeled_p99_ms", 0.0), "ms"),
        "sim.modeled_miss_pct": (values.get("modeled_miss_pct", 0.0), "%"),
        "sim.modeled_energy_per_query_j": (
            values.get("modeled_energy_per_query_j", 0.0), "J"),
        "net.sample_ns": (sample_ns, "ns"),
        "net.sample_prepared_ns": (probes.get("net.sample_prepared_ns", 0.0),
                                   "ns"),
        "net.path_samples": (2 * subqueries, "count"),
        "net.des_share": (ratio(2 * subqueries * sample_ns / 1e9, des_s),
                          "ratio"),
        "dvfs.select_ns_d1": (probes.get("dvfs.select_ns_d1", 0.0), "ns"),
        "dvfs.select_ns_d4": (probes.get("dvfs.select_ns_d4", 0.0), "ns"),
        "dvfs.select_ns_d16": (probes.get("dvfs.select_ns_d16", 0.0), "ns"),
        "dvfs.vp_table_ns": (probes.get("dvfs.vp_table_ns", 0.0), "ns"),
        "topo.find_link_ns": (probes.get("topo.find_link_ns", 0.0), "ns"),
        "core.run_epoch_ms_p50": (stated(
            epoch_ms, 0.5, 1.0, note,
            "core.run_epoch_ms_p50", "epochs"), "ms"),
        "core.run_epoch_ms_p99": (stated(
            epoch_ms, 0.99, 1.0, note,
            "core.run_epoch_ms_p99", "epochs"), "ms"),
        "core.k_search_ms_p50": (stated(
            durations.get("k_search", []), 0.5, 1e-3, note,
            "core.k_search_ms_p50", "spans"), "ms"),
        "core.slack_estimate_ms_p50": (stated(
            durations.get("slack_estimate", []), 0.5, 1e-3, note,
            "core.slack_estimate_ms_p50", "spans"), "ms"),
        "core.slack_samples": (counter("slack.samples"), "count"),
        "core.k_feasible_frac": (ratio(counter("planner.k_feasible"),
                                       counter("planner.k_candidates")),
                                 "ratio"),
        "core.setup_ms": (median_value("core_setup_ms"), "ms"),
        "consolidate.greedy_ms_p50": (stated(
            durations.get("consolidate_greedy", []), 0.5, 1e-3, note,
            "consolidate.greedy_ms_p50", "spans"), "ms"),
        "consolidate.greedy_calls": (counter("consolidate.greedy_calls"),
                                     "count"),
        "consolidate.flows_placed": (counter("consolidate.flows_placed"),
                                     "count"),
        "consolidate.overflows": (counter("consolidate.overflows"), "count"),
        "schedule.schedule_ms": (median_value("schedule_ms"), "ms"),
        "schedule.append_us_p50": (stated(
            op_samples("append_epoch_flows_us"), 0.5, 1.0, note,
            "schedule.append_us_p50", "epochs"), "us"),
        "schedule.carried_frac": (ratio(
            values.get("schedule_carried_mbit", 0.0),
            values.get("schedule_total_mbit", 0.0)), "ratio"),
        "lp.milp_nodes": (nodes, "count"),
        "lp.ms_per_node": (ratio(median(
            [sum(p["op_ms"].get("milp", [])) for p in untraced]), nodes),
            "ms"),
        "lp.milp_ms_p50": (stated(op_samples("milp"), 0.5, 1.0, note,
                                  "lp.milp_ms_p50", "solves"), "ms"),
        "lp.arc_lp_ms_p50": (stated(op_samples("arc_lp"), 0.5, 1.0, note,
                                    "lp.arc_lp_ms_p50", "solves"), "ms"),
        "lp.proven_optimal_frac": (ratio(solves - first["ops_failed"], solves),
                                   "ratio"),
        "obs.trace_overhead_pct": (100.0 * (with_trace / plain - 1.0), "%"),
        "obs.raw_wall_s": (median([p["wall_s"] for p in untraced]), "s"),
        "obs.host_slowdown": (median(
            [p["burst_s"] for p in untraced]) / benchlib.NOMINAL_BURST_S,
            "ratio"),
    }
    for name in m:
        if name.split(".")[0] not in LAYERS[raw["workload"]]:
            note[name] = "layer not exercised by this workload"
    return m, split


def print_split(split):
    """Where a traced pass's time went: per span name, median total and
    self time per pass, as a share of the whole pass."""
    names = {name for totals in split for name in totals}
    rows = []
    for name in names:
        total = median([t.get(name, [0.0, 0.0])[0] for t in split])
        own = median([t.get(name, [0.0, 0.0])[1] for t in split])
        rows.append((own, total, name))
    whole = median([t["bench.pass"][0] for t in split])
    print("time split of a traced pass (span self time, median of %d, as a "
          "share of the pass's work; bench.host_speed is the reference "
          "bursts, outside the work):" % len(split))
    for own, total, name in sorted(rows, reverse=True):
        print("  %-26s self %10.3f ms (%5.1f%%)  total %10.3f ms" % (
            name, own / 1e3, 100.0 * own / whole, total / 1e3))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    build()
    started = time.monotonic()  # the deadline excludes the first build
    runs = os.path.join(BUILD_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    trace_dir = os.path.join(runs, "trace-" + tag)
    raw = run_workload(args, os.path.join(runs, tag + ".json"), trace_dir,
                     started)

    golden = benchlib.load_json(os.path.join(BENCH_DIR, "golden.json"))
    passes = raw["passes"]
    correct, attempted, failed, problems = benchlib.verdict(
        args.workload, args.seed, passes, golden)

    note = {}
    split = None
    if args.trace:
        metrics, split = per_layer(raw, trace_dir, note)
    else:
        metrics = end_to_end(raw)

    env = environment()
    env["planner_threads"] = raw["planner_threads"]
    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("env: " + " ".join("%s=%s" % kv for kv in env.items()))
    print("passes: %d (%d traced); raw wall_s %s; burst_us %s; "
          "raw setup_s %s" % (
              len(passes), sum(p["traced"] for p in passes),
              " ".join("%.3f" % p["wall_s"] for p in passes),
              " ".join("%.1f" % (1e6 * p["burst_s"]) for p in passes),
              " ".join("%.4f" % p["setup_s"] for p in passes)))
    known = golden.get(args.workload, {}).get(str(args.seed))
    print("output fingerprint %s (%s)" % (
        passes[0]["fingerprint"],
        "matches the committed one" if known == passes[0]["fingerprint"]
        else "no committed fingerprint for this seed" if known is None
        else "MISMATCH"))
    for problem in problems:
        print("INCORRECT: " + problem)
    print("operations: %d attempted, %d failed" % (attempted, failed))
    if split:
        print_split(split)
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6g %-6s %s" % (name, value, unit,
                                          note.get(name, "")))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)

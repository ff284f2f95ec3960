"""Helpers for perfbench/run.py: percentiles, host-speed normalisation,
span self time, and the output-fingerprint check. They are pure
functions, tested by perfbench/test_benchlib.py."""

import json
import math


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it can state."""


# A percentile is stated only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-quantile of `samples` (0 < q < 1), as (value, count).

    Raises TooFewSamples unless at least MIN_BEYOND samples lie above the
    rank, so a p99 needs 1000 samples and a p50 needs 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            "p%g of %d samples leaves %d beyond it; need %d"
            % (100 * q, n, n - rank, MIN_BEYOND))
    return sorted(samples)[rank - 1], n


# Mean time of one HostSpeed reference burst (perfbench/workloads.cpp) on
# an uncontended core of the reference host. A normalised time is in host
# seconds at that speed.
NOMINAL_BURST_S = 150e-6


def normalized(seconds, burst_s):
    """`seconds` measured while the reference burst took `burst_s` on
    average, scaled to the speed at which it takes NOMINAL_BURST_S."""
    if not burst_s > 0:
        raise ValueError("no reference burst was timed")
    return seconds * NOMINAL_BURST_S / burst_s


def spans_from_chrome(trace):
    """Complete ("X") events of a Chrome trace as span dicts with a
    `parent` index: the innermost span on the same thread whose interval
    contains the span. Timestamps and durations stay in microseconds."""
    events = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    spans = [{"name": e["name"], "tid": e.get("tid", 0),
              "start": float(e["ts"]), "end": float(e["ts"]) + float(e["dur"]),
              "parent": None} for e in events]
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["tid"], spans[i]["start"],
                                  -spans[i]["end"]))
    stack = []
    tid = None
    for i in order:
        span = spans[i]
        if span["tid"] != tid:
            stack, tid = [], span["tid"]
        while stack and spans[stack[-1]]["end"] < span["end"]:
            stack.pop()
        if stack:
            span["parent"] = stack[-1]
        stack.append(i)
    return spans


def durations_excluding(spans, name):
    """Duration of each span minus the time of the spans called `name`
    nested inside it (a `name` span itself keeps its own duration)."""
    result = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["name"] != name:
            continue
        dur = span["end"] - span["start"]
        parent = span["parent"]
        while parent is not None:
            result[parent] -= dur
            parent = spans[parent]["parent"]
    return result


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (children may overlap one another)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        for c in sorted(children[i], key=lambda c: spans[c]["start"]):
            start = max(spans[c]["start"], reach)
            end = min(spans[c]["end"], span["end"])
            if end > start:
                covered += end - start
                reach = end
        result.append(span["end"] - span["start"] - covered)
    return result


def check_fingerprints(workload, seed, passes, golden):
    """Output check of one run. Every pass must reproduce the first pass's
    fingerprint and work counters, every invariant must hold, and a seed
    with a committed fingerprint must match it. Returns a list of
    problems; empty means correct."""
    problems = []
    if not passes:
        return ["no pass ran"]
    first = passes[0]
    for i, p in enumerate(passes):
        if p["fingerprint"] != first["fingerprint"]:
            problems.append("pass %d fingerprint %s differs from pass 0's %s"
                            % (i, p["fingerprint"], first["fingerprint"]))
        if p["counters"] != first["counters"]:
            problems.append("pass %d work counters differ from pass 0's" % i)
        for name, held in p["checks"].items():
            if not held:
                problems.append("pass %d invariant failed: %s" % (i, name))
    expected = golden.get(workload, {}).get(str(seed))
    if expected is not None and expected != first["fingerprint"]:
        problems.append("fingerprint %s does not match the committed %s "
                        "for seed %s" % (first["fingerprint"], expected, seed))
    return problems


def verdict(workload, seed, passes, golden):
    """(correct, attempted, failed, problems) of one run. An incorrect run
    counts every attempted operation as failed: none of its outputs can be
    trusted."""
    problems = check_fingerprints(workload, seed, passes, golden)
    attempted = sum(p["attempted"] for p in passes)
    failed = attempted if problems else sum(p["ops_failed"] for p in passes)
    return not problems, attempted, failed, problems


def load_json(path):
    with open(path) as f:
        return json.load(f)

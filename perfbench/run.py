#!/usr/bin/env python3
"""Builds the psme benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The first call configures and builds
perfbench/ (the library from ../src plus the perfbench binary, Release) into
.bench_build/perfbench; later calls rebuild only what changed.

--trace 0 measures the workload untraced in PROCESSES fresh processes, one
after another on the same seed, each for an equal share of --seconds, and
prints the median of each end-to-end metric. --trace 1 prints every
per-layer metric of BENCHMARK.json: it runs every workload untraced and then
traced, a sixth of --seconds each, and measures each layer on the workload
it maps to (see README.md), whichever --workload is named.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Any failure to build or run
exits non-zero without printing one.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["soar_learn", "query_churn", "group_wave"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Every perfbench process of a run ends within this many seconds of the build.
RUN_LIMIT_S = 170
# The processes an untraced run is split over. Each metric is the median of
# theirs, so no one process's speed decides a run (README.md, "Noise").
PROCESSES = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; stdout stays clean."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def run_binary(args, timeout_s):
    """Runs the perfbench binary; returns its stdout lines, or None on failure."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, timeout_s), cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: binary timed out: " + " ".join(args))
        return None
    if proc.returncode != 0:
        log("perfbench: binary exited with %d: %s" % (proc.returncode, " ".join(args)))
        return None
    return proc.stdout.splitlines()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def validate(result, expected):
    """Returns a list of schema problems of a result object."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are %s, want %s" % (sorted(result) if isinstance(result, dict)
                                                else type(result).__name__, sorted(RESULT_KEYS))]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(expected):
        problems.append("metrics missing %s, unexpected %s" % (
            sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("%s is not {value, unit}" % name)
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("%s value is not a finite number" % name)
        if name in expected and m["unit"] != expected[name]:
            problems.append("%s unit %s, want %s" % (name, m["unit"], expected[name]))
    return problems


def valid(result, expected):
    """Logs the schema problems of a result object; true when there are none."""
    problems = validate(result, expected)
    for p in problems:
        log("perfbench: bad result: " + p)
    return not problems


def median_of(parts, e2e):
    """Each end-to-end metric's median over the processes' results."""
    return {name: {"value": statistics.median(p["metrics"][name]["value"] for p in parts),
                   "unit": unit}
            for name, unit in e2e.items()}


def run(workload, seed, seconds, trace, deadline):
    e2e, layers = load_spec()
    prefix = []
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}

    def measure(w, share, t):
        """One perfbench process: (its exact counts, its result), or None."""
        lines = run_binary(["--workload", w, "--seed", str(seed), "--seconds", str(share),
                            "--trace", str(t)], deadline - time.monotonic())
        if not lines or len(lines) < 2:
            return None
        part = json.loads(lines[-1])
        if not isinstance(part, dict) or set(part) != RESULT_KEYS:
            log("perfbench: bad result line: " + lines[-1])
            return None
        prefix.extend(lines[:-1])
        result["correct"] = result["correct"] and part["correct"] is True
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        return json.loads(lines[-2])["exact_counts"], part

    if not trace:
        counts, parts = [], []
        for _ in range(PROCESSES):
            out = measure(workload, seconds / PROCESSES, 0)
            if out is None or not valid(out[1], e2e):
                return None
            counts.append(out[0])
            parts.append(out[1])
        if any(c != counts[0] for c in counts):
            log("perfbench: processes given one seed disagree on exact counts")
            result["correct"] = False
        result["metrics"] = median_of(parts, e2e)
        expected = e2e
    else:
        # Each workload runs twice, untraced then traced, each in its own
        # process so peak RSS belongs to that pass alone; the difference of
        # the two runs' end-to-end metrics is the tracing overhead.
        share = seconds / (2 * len(WORKLOADS))
        for w in [workload] + [x for x in WORKLOADS if x != workload]:
            plain = measure(w, share, 0)
            traced = measure(w, share, 1) if plain is not None else None
            if traced is None:
                return None
            for name, m in traced[1]["metrics"].items():
                if name in e2e:
                    base = plain[1]["metrics"][name]["value"]
                    result["metrics"]["overhead.%s.%s" % (w, name)] = {
                        "value": m["value"] - base, "unit": m["unit"]}
                    log("  overhead.%s.%-20s %12.6g %s (untraced %.6g)" % (
                        w, name, m["value"] - base, m["unit"], base))
                else:
                    result["metrics"][name] = m
        expected = layers
    if not valid(result, expected):
        return None
    return prefix, result


def self_test():
    lines = run_binary(["--self-test"], RUN_LIMIT_S)
    failures = 0 if lines is not None else 1
    expected = {"latency_p50_ms": "ms", "setup_s": "s"}
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"latency_p50_ms": {"value": 0.5, "unit": "ms"},
                        "setup_s": {"value": 1.25, "unit": "s"}}}
    bad = [
        dict(good, extra=1),
        dict(good, attempted=0),
        dict(good, failed=1.5),
        dict(good, metrics={"latency_p50_ms": {"value": 0.5, "unit": "ms"}}),
        dict(good, metrics={"latency_p50_ms": {"value": 0.5, "unit": "s"},
                            "setup_s": {"value": 1.25, "unit": "s"}}),
        dict(good, metrics={"latency_p50_ms": {"value": "0.5", "unit": "ms"},
                            "setup_s": {"value": 1.25, "unit": "s"}}),
    ]
    if validate(good, expected):
        log("self-test FAILED: a well-formed result was rejected")
        failures += 1
    for i, b in enumerate(bad):
        if not validate(b, expected):
            log("self-test FAILED: malformed result %d was accepted" % i)
            failures += 1
    slow = dict(good, metrics={"latency_p50_ms": {"value": 0.9, "unit": "ms"},
                               "setup_s": {"value": 1.0, "unit": "s"}})
    fast = dict(good, metrics={"latency_p50_ms": {"value": 0.1, "unit": "ms"},
                               "setup_s": {"value": 2.0, "unit": "s"}})
    if median_of([slow, good, fast], expected) != good["metrics"]:
        log("self-test FAILED: processes do not combine by each metric's median")
        failures += 1
    e2e, layers = load_spec()
    if not e2e or not layers or set(e2e) & set(layers):
        log("self-test FAILED: BENCHMARK.json metric lists overlap or are empty")
        failures += 1
    log("run.py self-test: %d failure(s)" % failures)
    return failures == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not build():
        return 1
    if args.self_test:
        return 0 if self_test() else 1
    if args.workload is None:
        ap.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, args.trace == 1,
              time.monotonic() + RUN_LIMIT_S)
    if out is None:
        return 1
    prefix, result = out
    for line in prefix:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

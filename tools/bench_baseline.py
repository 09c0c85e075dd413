#!/usr/bin/env python3
"""Pins the benchmark's exact counts in the committed BENCH_<workload>.json.

    tools/bench_baseline.py [--workload W]...            # check
    tools/bench_baseline.py --update [--workload W]...   # rewrite
    tools/bench_baseline.py --self-test

For each workload of BENCHMARK.json (or each --workload) it runs
`python3 perfbench/run.py --workload W --seed 1 --seconds 3 --trace 0`; the
exact counts do not depend on the run length.
--update writes BENCH_<W>.json at the repository root: the host, the run's
exact counts, its end-to-end medians and its correct/attempted/failed; it
refuses to record a run that is not correct or failed an op. A check
compares a fresh run with the committed file and exits 1 when an exact count
differs, is missing or is new, when the run is not correct or failed an op,
or when the baseline is missing or malformed. End-to-end deltas are printed
as advisory only: wall-clock numbers belong to the host that measured them.
A change that moves an exact count on purpose commits the --update output.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
SECONDS = 3
BASELINE_KEYS = {"workload", "seed", "seconds", "host", "exact_counts",
                 "end_to_end", "correct", "attempted", "failed"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    """BENCHMARK.json's workload names and {end-to-end metric: better}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def metric_problems(what, metrics):
    if not isinstance(metrics, dict) or not metrics:
        return ["%s is not a non-empty object" % what]
    return ["%s %s is not {value, unit}" % (what, name)
            for name, m in metrics.items()
            if not isinstance(m, dict) or set(m) != {"value", "unit"}
            or not is_number(m["value"]) or not isinstance(m["unit"], str)]


def record_problems(rec):
    """Schema problems of a baseline record (empty when well-formed)."""
    if not isinstance(rec, dict) or set(rec) != BASELINE_KEYS:
        return ["keys are %s, want %s" % (
            sorted(rec) if isinstance(rec, dict) else type(rec).__name__,
            sorted(BASELINE_KEYS))]
    problems = metric_problems("exact count", rec["exact_counts"])
    problems += metric_problems("end-to-end metric", rec["end_to_end"])
    if not isinstance(rec["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(rec[key], int) or isinstance(rec[key], bool) or rec[key] < 0:
            problems.append("%s is not a whole number" % key)
    return problems


def load_baseline(path):
    """(record, problems) of a committed baseline file."""
    try:
        with open(path) as f:
            rec = json.load(f)
    except FileNotFoundError:
        return None, ["%s is missing (run with --update to record it)" % path]
    except (OSError, ValueError) as e:
        return None, ["%s is not readable JSON: %s" % (path, e)]
    problems = ["%s: %s" % (path, p) for p in record_problems(rec)]
    return (None if problems else rec), problems


def summarize(workload, lines, cpu=None):
    """The baseline record of run.py's stdout lines, or None if unusable.

    run.py prints each perfbench process's host-and-exact-counts line and
    then its combined result; it already marks a run whose processes
    disagree on the exact counts as not correct."""
    try:
        procs = [json.loads(line) for line in lines[:-1]]
        result = json.loads(lines[-1])
        first = procs[0]
        host = dict(first["host"])
        if cpu:
            host["cpu"] = cpu
        rec = {"workload": workload, "seed": SEED, "seconds": SECONDS,
               "host": host, "exact_counts": first["exact_counts"],
               "end_to_end": result["metrics"], "correct": result["correct"],
               "attempted": result["attempted"], "failed": result["failed"]}
    except (ValueError, LookupError, TypeError) as e:
        log("bench_baseline: unusable run.py output: %r" % e)
        return None
    problems = record_problems(rec)
    for p in problems:
        log("bench_baseline: bad run record: " + p)
    return None if problems else rec


def compare(base, run, better):
    """(failures, advisories) of a run record against its baseline."""
    failures = []
    if run["correct"] is not True:
        failures.append("the run is not correct")
    if run["failed"] != 0:
        failures.append("%d of %d ops failed" % (run["failed"], run["attempted"]))
    want, got = base["exact_counts"], run["exact_counts"]
    for name in sorted(set(want) | set(got)):
        if name not in got:
            failures.append("exact count %s is missing (baseline %r)"
                            % (name, want[name]["value"]))
        elif name not in want:
            failures.append("exact count %s = %r is not in the baseline"
                            % (name, got[name]["value"]))
        elif got[name] != want[name]:
            failures.append("exact count %s: baseline %r %s, run %r %s" % (
                name, want[name]["value"], want[name]["unit"],
                got[name]["value"], got[name]["unit"]))
    advisories = []
    for name, direction in better.items():
        b, r = base["end_to_end"].get(name), run["end_to_end"].get(name)
        if b is None or r is None:
            continue
        b, r = b["value"], r["value"]
        rel = (r - b) / b if b else 0.0
        verdict = "same" if r == b else (
            "better" if (r < b) == (direction == "lower") else "worse")
        advisories.append("%-18s %12.6g -> %12.6g (%+.1f%%, %s)"
                          % (name, b, r, 100 * rel, verdict))
    return failures, advisories


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_perfbench(workload):
    """run.py's stdout lines for one seed-1 untraced run, or None."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log("bench_baseline: %s exited %d" % (" ".join(cmd), proc.returncode))
        return None
    return lines


def self_test():
    """Checks compare/load/summarize on synthetic records; no perfbench run."""
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    better = {"latency_p50_ms": "lower", "throughput_ops_s": "higher"}

    def record(**kw):
        rec = {"workload": "w", "seed": SEED, "seconds": SECONDS,
               "host": {"nproc": 4, "loadavg_1m": 0.5, "matcher_threads": 1},
               "exact_counts": {"engine.match_tasks": {"value": 847890, "unit": "count"},
                                "psim.sim_match_s_p8": {"value": 36.970411, "unit": "vs"}},
               "end_to_end": {"latency_p50_ms": {"value": 0.5, "unit": "ms"},
                              "throughput_ops_s": {"value": 1000.0, "unit": "1/s"}},
               "correct": True, "attempted": 3000, "failed": 0}
        rec.update(kw)
        return rec

    base = record()
    expect(not record_problems(base), "a well-formed record was rejected")
    fails, adv = compare(base, record(), better)
    expect(not fails, "equal counts failed: %s" % fails)
    expect(len(adv) == 2 and all("same" in a for a in adv),
           "equal end-to-end metrics were not reported unchanged: %s" % adv)

    moved = record(exact_counts=dict(base["exact_counts"], **{
        "engine.match_tasks": {"value": 847891, "unit": "count"}}))
    fails, _ = compare(base, moved, better)
    expect(len(fails) == 1 and "engine.match_tasks" in fails[0]
           and "847890" in fails[0] and "847891" in fails[0],
           "a moved count was not failed by name: %s" % fails)
    for gone in (record(exact_counts={"engine.match_tasks": base["exact_counts"][
                     "engine.match_tasks"]}),
                 record(exact_counts=dict(base["exact_counts"], **{
                     "soar.chunks_built": {"value": 52, "unit": "count"}}))):
        fails, _ = compare(base, gone, better)
        expect(len(fails) == 1, "a missing or new count did not fail: %s" % fails)

    slower = record(end_to_end={"latency_p50_ms": {"value": 0.75, "unit": "ms"},
                                "throughput_ops_s": {"value": 1100.0, "unit": "1/s"}})
    fails, adv = compare(base, slower, better)
    expect(not fails, "an end-to-end change failed the check: %s" % fails)
    expect(any("latency_p50_ms" in a and "+50.0%" in a and "worse" in a for a in adv)
           and any("throughput_ops_s" in a and "better" in a for a in adv),
           "end-to-end deltas were not reported: %s" % adv)

    fails, _ = compare(base, record(correct=False), better)
    expect(fails == ["the run is not correct"], "an incorrect run passed: %s" % fails)
    fails, _ = compare(base, record(failed=2), better)
    expect(fails == ["2 of 3000 ops failed"], "a failed op passed: %s" % fails)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "BENCH_w.json")
        rec, problems = load_baseline(path)
        expect(rec is None and problems, "a missing baseline loaded")
        for text in ("{not json", json.dumps(dict(base, exact_counts={})),
                     json.dumps({k: v for k, v in base.items() if k != "failed"}),
                     json.dumps(dict(base, exact_counts={
                         "engine.match_tasks": {"value": "847890", "unit": "count"}}))):
            with open(path, "w") as f:
                f.write(text)
            rec, problems = load_baseline(path)
            expect(rec is None and problems, "a malformed baseline loaded: %s" % text)
        with open(path, "w") as f:
            json.dump(base, f)
        rec, problems = load_baseline(path)
        expect(rec == base and not problems, "a good baseline did not load: %s" % problems)

    host = {"nproc": 4, "loadavg_1m": 0.5, "matcher_threads": 1}
    lines = [json.dumps({"host": host, "exact_counts": base["exact_counts"]})] * 3 + [
        json.dumps({"correct": True, "attempted": 3000, "failed": 0,
                    "metrics": base["end_to_end"]})]
    expect(summarize("w", lines) == base, "run.py output did not summarize")
    expect(summarize("w", lines[:1] + ["{}"]) is None, "a bad result line summarized")

    for f in failures:
        log("bench_baseline self-test FAILED: " + f)
    log("bench_baseline self-test: %d failure(s)" % len(failures))
    return not failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="a BENCHMARK.json workload (repeatable; default: all)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite BENCH_<workload>.json from a fresh run")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return 0 if self_test() else 1
    workloads, better = load_spec()
    for w in args.workload or []:
        if w not in workloads:
            ap.error("unknown workload %s (BENCHMARK.json has %s)" % (w, workloads))
    status = 0
    for w in args.workload or workloads:
        path = os.path.join(ROOT, "BENCH_%s.json" % w)
        base = None
        if not args.update:
            base, problems = load_baseline(path)
            if problems:
                for p in problems:
                    print("FAIL %s: %s" % (w, p))
                status = 1
                continue
        lines = run_perfbench(w)
        run = summarize(w, lines, cpu_model()) if lines else None
        if run is None:
            print("FAIL %s: perfbench produced no usable result" % w)
            status = 1
            continue
        if args.update:
            if not run["correct"] or run["failed"]:
                print("FAIL %s: refusing to record a run that is not correct "
                      "or failed %d op(s)" % (w, run["failed"]))
                status = 1
                continue
            with open(path, "w") as f:
                json.dump(run, f, indent=2, sort_keys=True)
                f.write("\n")
            print("wrote %s" % os.path.relpath(path, ROOT))
            continue
        failures, advisories = compare(base, run, better)
        print("%s end-to-end vs baseline (advisory; host-dependent):" % w)
        for a in advisories:
            print("  " + a)
        for f in failures:
            print("FAIL %s: %s" % (w, f))
        if failures:
            status = 1
        else:
            print("ok %s: %d exact count(s) match" % (w, len(run["exact_counts"])))
    return status


if __name__ == "__main__":
    sys.exit(main())

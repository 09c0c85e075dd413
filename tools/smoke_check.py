#!/usr/bin/env python3
"""Runs one smoke check: a built binary, then assertions on what it wrote.

    tools/smoke_check.py <check> <binary> <out-dir>

ctest runs every check (label `smoke`, registered in tools/CMakeLists.txt)
with the binary's path and <build>/smoke as the output directory; the files
each check writes there are the ones CI uploads.

  lint         network_lint over every registry task (exit 0 = no violations)
  longchain    bench_longchain 2 4 1: CS consistent at 2, 4 and 8 workers
  multiagent   bench_multiagent 10 6 1: the session sweep and sane latencies
  query        bench_query 20 1: the workers x sessions sweep, nodes churned
  trace        eight_puzzle_demo under PSME_TRACE: per-worker task spans and
               the §5.2 update.A/B/C spans in the Chrome trace
  profile      eight_puzzle_demo --profile-json: a full-rate profile
  correlation  network_lint --profile on the profile check's output
  demo_flags   a demo exits 2 on an unknown or mistyped flag, on the retired
               scheduler flags, and on an --agents value that is not a
               whole number below 2^32

Exit 0 = pass, 1 = the binary failed or an assertion did not hold.
"""
import json
import os
import subprocess
import sys


def run(cmd, stdout=None, env=None):
    """Runs `cmd`; its stdout goes to the file `stdout` when given."""
    full_env = dict(os.environ, **(env or {}))
    if stdout is None:
        rc = subprocess.run(cmd, env=full_env).returncode
    else:
        with open(stdout, "w") as f:
            rc = subprocess.run(cmd, stdout=f, env=full_env).returncode
    assert rc == 0, "%s exited with %d" % (" ".join(cmd), rc)


def load(path):
    with open(path) as f:
        return json.load(f)


def lint(binary, out):
    reports = os.path.join(out, "lint-reports")
    os.makedirs(reports, exist_ok=True)
    run([binary, "--json", reports])


def longchain(binary, out):
    path = os.path.join(out, "bench-longchain.json")
    run([binary, "2", "4", "1"], stdout=path)
    d = load(path)
    assert d["cs_consistent"] == "true", "CS diverged from serial"
    workers = sorted(r["workers"] for r in d["records"])
    assert workers == [2, 4, 8], f"unexpected worker counts: {workers}"
    assert max(p["processors"] for p in d["vp_sweep"]) == 256
    print(f"longchain OK: {len(d['records'])} records, CS consistent")


def multiagent(binary, out):
    path = os.path.join(out, "bench-multiagent.json")
    run([binary, "10", "6", "1"], stdout=path)
    d = load(path)
    agents = [r["agents"] for r in d["records"]]
    assert agents == [1, 4, 16, 64], f"unexpected sweep: {agents}"
    for r in d["records"]:
        assert r["agent_cycles_per_sec"] > 0, r
        assert r["p99_step_ms"] >= r["p50_step_ms"], r
    print(f"multiagent OK: 16-vs-1 aggregate throughput "
          f"{d['speedup_16_vs_1']:.2f}x")


def query(binary, out):
    path = os.path.join(out, "bench-query.json")
    run([binary, "20", "1"], stdout=path)
    d = load(path)
    configs = {(r["workers"], r["agents"]) for r in d["records"]}
    expect = {(w, a) for w in (1, 2, 4, 8) for a in (1, 4)}
    assert configs == expect, f"unexpected sweep: {configs}"
    for r in d["records"]:
        assert r["queries_per_sec"] > 0, r
        assert r["nodes_churned"] > 0, r
    best = max(r["queries_per_sec"] for r in d["records"])
    print(f"query churn OK: {len(d['records'])} configs, "
          f"peak {best:.0f} queries/sec")


def trace(binary, out):
    path = os.path.join(out, "trace-eight-puzzle.json")
    run([binary, "--stats"], env={"PSME_TRACE": path})
    d = load(path)
    evs = [e for e in d["traceEvents"] if e["ph"] != "M"]
    names = {e["name"] for e in evs}
    worker_tids = {e["tid"] for e in evs if e["name"] == "task" and e["tid"] >= 1}
    assert worker_tids, "no per-worker task spans in trace"
    for phase in ("update.A", "update.B", "update.C"):
        assert phase in names, f"missing {phase} span"
    print(f"trace OK: {len(evs)} events, worker tracks {sorted(worker_tids)}")


def profile(binary, out):
    path = os.path.join(out, "profile-eight-puzzle.json")
    run([binary, "--profile-json", path])
    d = load(path)
    assert d["network"] == "eight-puzzle", d["network"]
    p = d["profile"]
    assert p["activations"] > 0, "profiler counted nothing"
    assert p["sampled"] == p["activations"], "demo profiles at full rate"
    prods = p["productions"]
    assert prods, "no per-production rows"
    assert sum(r["acts"] for r in prods) > 0
    print(f"profile OK: {len(prods)} productions, "
          f"{p['activations']} activations, {p['time_us']:.0f} us")


def correlation(binary, out):
    reports = os.path.join(out, "corr-reports")
    os.makedirs(reports, exist_ok=True)
    run([binary, "eight-puzzle", "--json", reports,
         "--profile", os.path.join(out, "profile-eight-puzzle.json"),
         "--strict-profile", "--hot-ratio", "1e9", "--cold-ratio", "0"])
    d = load(os.path.join(reports, "CORR_eight-puzzle.json"))
    c = d["correlation"]
    assert c["correlated"] > 0, "measured profile joined ZERO static rows"
    rows = [r for r in c["productions"] if r["acts"] > 0]
    assert rows, "no correlated rows carry measured activations"
    for r in rows:
        assert r["measured_us"] >= 0 and r["static_us"] > 0, r
    print(f"correlation OK: {c['correlated']} of "
          f"{len(c['productions'])} productions measured, "
          f"{c['flagged']} flagged")


def demo_flags(binary, out):
    for args in (["--no-such-flag"], ["--chain-split-depht", "4"],
                 ["--chain-split-depth", "4"], ["--steal-backoff-park", "2"],
                 ["--agents", "-1"], ["--agents", "3x"]):
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 2, f"{args}: exit {proc.returncode}, want 2"
        assert args[0] in proc.stderr, f"{args}: stderr does not name the flag"
    print("demo flags OK: unknown options and bad counts exit 2")


CHECKS = {f.__name__: f for f in (lint, longchain, multiagent, query, trace,
                                  profile, correlation, demo_flags)}


def main():
    if not __debug__:
        sys.exit("smoke_check.py: the checks are asserts; run without -O")
    if len(sys.argv) != 4 or sys.argv[1] not in CHECKS:
        sys.exit(__doc__)
    check, binary, out = sys.argv[1:]
    os.makedirs(out, exist_ok=True)
    try:
        CHECKS[check](binary, out)
    except AssertionError as e:
        print(f"{check} FAILED: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

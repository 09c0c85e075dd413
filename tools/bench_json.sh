#!/usr/bin/env bash
# Builds and runs the machine-readable benchmarks, capturing each one's
# stdout into BENCH_<name>.json at the repo root (human tables stay on
# stderr). Currently: bench_scheduler (the real-thread work-stealing
# scheduler swept over worker counts), bench_tokens (heap allocations per
# activation of the inline/arena token), bench_longchain (deep linear join
# chains: chain splitting vs split-every-link vs never-split, plus the VP
# sweep to 256),
# and bench_multiagent (N agent sessions over one shared network and one
# 8-worker pool: aggregate agent-cycles/sec and p99 step latency vs
# session count), and bench_query (transient-query churn: add/match/remove
# cycles through the run-time production removal path, swept over steal
# workers × agent sessions).
#
# Each bench writes to a temp file that is validated (python3 -m json.tool)
# and only then moved into place, so a crashing or interrupted bench can
# never leave a stale or truncated BENCH_*.json behind.
#
# After the benches, the measured-profile artifacts: a profiled eight-puzzle
# chunking run (eight_puzzle_demo --profile-json) writes
# PROFILE_eight_puzzle.json, and network_lint --profile joins it against the
# static cost table, archiving CORR_eight-puzzle.json alongside the LINT_*
# reports.
#
#   tools/bench_json.sh                 # default workload
#   tools/bench_json.sh 30 32           # rounds / wave size forwarded
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake --preset default >/dev/null
cmake --build build -j "$jobs" --target bench_scheduler --target bench_tokens \
  --target bench_longchain --target bench_multiagent --target bench_query \
  --target eight_puzzle_demo --target network_lint

# run_bench <binary> <output.json> [args...]: capture, validate, then commit.
run_bench() {
  local bin="$1" out="$2"
  shift 2
  if [[ ! -x "$bin" ]]; then
    echo "error: bench executable missing or not executable: $bin" >&2
    echo "       (build it with: cmake --build build --target $(basename "$bin"))" >&2
    return 1
  fi
  local tmp
  tmp="$(mktemp "${out}.XXXXXX.tmp")"
  trap 'rm -f "$tmp"' RETURN
  echo "==== $(basename "$bin") -> $out ===="
  "$bin" "$@" > "$tmp"
  python3 -m json.tool "$tmp" > /dev/null || {
    echo "error: $(basename "$bin") emitted invalid JSON (kept: $tmp)" >&2
    trap - RETURN
    return 1
  }
  mv "$tmp" "$out"
  echo "wrote $repo_root/$out"
}

run_bench build/bench/bench_scheduler BENCH_scheduler.json "$@"
run_bench build/bench/bench_tokens BENCH_tokens.json "$@"
# bench_longchain takes rounds/values/reps, not rounds/wave — run it at its
# defaults rather than forwarding bench_scheduler-shaped arguments.
run_bench build/bench/bench_longchain BENCH_longchain.json
# bench_multiagent's wave is per agent per cycle (default 6) — its defaults
# are tuned for the serving sweep, so don't forward the scheduler workload.
run_bench build/bench/bench_multiagent BENCH_multiagent.json
# bench_query takes cycles-per-session/reps — defaults are CI-sized.
run_bench build/bench/bench_query BENCH_query.json

# Measured-profile artifacts: a full-rate profiled eight-puzzle chunking run
# (the demo's human output stays on stdout; the profile goes to the file),
# validated the same way before being committed into place.
echo "==== eight_puzzle_demo --profile-json -> PROFILE_eight_puzzle.json ===="
prof_tmp="$(mktemp PROFILE_eight_puzzle.json.XXXXXX.tmp)"
trap 'rm -f "$prof_tmp"' EXIT
build/examples/eight_puzzle_demo --profile-json "$prof_tmp" >/dev/null
python3 -m json.tool "$prof_tmp" > /dev/null || {
  echo "error: eight_puzzle_demo emitted an invalid profile (kept: $prof_tmp)" >&2
  trap - EXIT
  exit 1
}
mv "$prof_tmp" PROFILE_eight_puzzle.json
trap - EXIT
echo "wrote $repo_root/PROFILE_eight_puzzle.json"

# Join measured vs static: writes CORR_eight-puzzle.json next to the LINT_*
# reports (the join is by production name, so only the eight-puzzle task
# correlates; --strict-profile would fail an empty join).
echo "==== network_lint --profile -> CORR_eight-puzzle.json ===="
build/tools/network_lint eight-puzzle --json . \
  --profile PROFILE_eight_puzzle.json --quiet
python3 -m json.tool CORR_eight-puzzle.json > /dev/null
echo "wrote $repo_root/CORR_eight-puzzle.json"

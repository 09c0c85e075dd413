#!/usr/bin/env bash
# Byte-compares the stdout of the deterministic psim reproductions — the
# paper's figure and table benches plus the sharing and jumptable ablations —
# against the goldens committed in bench/golden/. Every number these benches
# print comes from recorded task DAGs and the virtual multiprocessor, so any
# difference is a change in match work, DAG shape or the cost model.
#
#   tools/bench_golden.sh [build-dir]                      # check (default: build)
#   PSME_UPDATE_GOLDEN=1 tools/bench_golden.sh [build-dir] # regenerate
#
# Exit 0 = every bench matched (or was regenerated), 1 = a bench differed or
# failed to run (the unified diff is printed).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo_root/build}"
golden="$repo_root/bench/golden"
benches=(
  bench_fig_6_1 bench_fig_6_2 bench_fig_6_3 bench_fig_6_4 bench_fig_6_5
  bench_fig_6_6 bench_fig_6_7 bench_fig_6_8 bench_fig_6_9 bench_fig_6_10
  bench_fig_6_11 bench_fig_6_12 bench_table_5_1 bench_table_6_1
  bench_sharing_ablation bench_jumptable_ablation
)

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
mkdir -p "$golden"
status=0
for b in "${benches[@]}"; do
  rc=0
  "$build/bench/$b" > "$out/$b.txt" || rc=$?
  if (( rc != 0 )); then
    echo "FAIL $b (exit $rc)" >&2
    status=1
    continue
  fi
  if [[ "${PSME_UPDATE_GOLDEN:-0}" == 1 ]]; then
    cp "$out/$b.txt" "$golden/$b.txt"
    echo "updated $b"
  elif diff -u "$golden/$b.txt" "$out/$b.txt"; then
    echo "ok $b"
  else
    echo "DIFF $b" >&2
    status=1
  fi
done
exit "$status"

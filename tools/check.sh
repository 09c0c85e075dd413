#!/usr/bin/env bash
# The full correctness gate: default build + tests, then the three sanitizer
# configurations (thread / address / undefined, each with the full GTest
# suite), then clang-tidy. Fails on the first diagnostic of any kind.
#
#   tools/check.sh            # everything (slow: four full builds)
#   tools/check.sh default    # just the tier-1 build + tests
#   tools/check.sh tsan asan  # a subset
#
# Stages: default, tsan, asan, ubsan, lint (network_lint over every
# registry production set, JSON reports into LINT_*.json), tidy, and bench
# (opt-in: not part of the default set; tools/bench_baseline.py checks
# perfbench's exact counts against the committed BENCH_<workload>.json).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
jobs="$(nproc 2>/dev/null || echo 2)"

stages=("$@")
if [[ ${#stages[@]} -eq 0 ]]; then
  stages=(default tsan asan ubsan lint tidy)
fi

run_preset() {
  local preset="$1"
  echo "==== [$preset] configure + build + test ===="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  ctest --preset "$preset" -j "$jobs"
}

for stage in "${stages[@]}"; do
  case "$stage" in
    default|tsan|asan|ubsan)
      run_preset "$stage"
      ;;
    bench)
      echo "==== [bench] perfbench exact counts vs committed baseline ===="
      tools/bench_baseline.py
      ;;
    lint)
      echo "==== [lint] network verifier + cost linter ===="
      if [[ ! -f build/CMakeCache.txt ]]; then
        cmake --preset default
      fi
      cmake --build build -j "$jobs" --target network_lint
      build/tools/network_lint --json .
      ;;
    tidy)
      echo "==== [tidy] clang-tidy ===="
      # Needs a configured build dir for compile_commands.json.
      if [[ ! -f build/compile_commands.json ]]; then
        cmake --preset default
      fi
      tools/run-clang-tidy.sh "$repo_root/build"
      ;;
    *)
      echo "check.sh: unknown stage '$stage'" >&2
      exit 2
      ;;
  esac
done

echo "==== all checks passed ===="

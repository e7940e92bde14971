#!/usr/bin/env bash
# Regenerate every file under results/: one .txt (human-readable tables) and
# one .json (machine-readable, see src/sim/reporting.hpp) per figure row of
# ptb-figures, the ptb-stats regression golden, and the bench_micro snapshot.
# All figures come from one ptb-figures call: one process, one run pool and
# one run memo, so a simulation that several figures share runs once.
#
# Usage: scripts/regen_results.sh [-j N] [build-dir]
#   -j N       worker threads for ptb-figures (default: all hardware threads)
#   build-dir  CMake build tree containing bench/ (default: build)
#
# Output is deterministic: the same sources produce byte-identical .txt and
# .json files at any -j value, so a clean `git diff` after running this
# script means the results are up to date.
set -euo pipefail

jobs=""
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N] [build-dir]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bench_dir="$build_dir/bench"
results_dir="$repo_root/results"

if [[ ! -d "$bench_dir" ]]; then
  echo "error: $bench_dir not found; build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# Every figure row to results/<name>.{txt,json}, plus the ptb-stats
# regression golden's source: the reference stats dump (the suite's first
# benchmark, fft, on PTB+2Level(dyn)/16 cores, sampled every 4096 cycles).
# The golden strips the volatile wall-clock gauges, so it is
# machine-independent; CI's stats smoke step gates fresh dumps against it
# with ptb-stats regress.
mkdir -p "$results_dir"
stats_tmp="$(mktemp)"
trap 'rm -f "$stats_tmp"' EXIT
echo "== ptb-figures (every figure row)"
"$bench_dir/ptb-figures" ${jobs:+--jobs "$jobs"} --out "$results_dir" \
    --stats "$stats_tmp:4096" all
echo "== stats_fig10 (ptb-stats regression golden)"
"$build_dir/tools/ptb-stats" dump "$stats_tmp" --json \
    --no-volatile > "$results_dir/stats_fig10.json"

# bench_micro is a google-benchmark timing harness: its numbers are
# machine-dependent, so only the .txt snapshot is kept (--json would write
# google-benchmark's own JSON schema, including wall-clock timings that
# would churn on every run).
echo "== bench_micro"
"$bench_dir/bench_micro" --benchmark_min_time=0.05 \
    > "$results_dir/bench_micro.txt"

echo "done: $(ls "$results_dir" | wc -l) files in results/"

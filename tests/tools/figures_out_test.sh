#!/usr/bin/env bash
# The figure behaviour contract, end to end: one `ptb-figures --jobs 4
# --out DIR --stats DIR/s.json:4096 all` run must reproduce every
# checked-in results/ figure file (text and JSON) byte for byte, its stats
# dump must reproduce results/stats_fig10.json through `ptb-stats dump
# --json --no-volatile`, the fft reference trace must be the same bytes at
# --jobs 1 and --jobs 4, and the checkpoint round-trip must hold: the fft
# reference run captured at cycle 20000 (it ends near 34k) or at cycle 0
# and restored from that frame finishes at the same cycle with the same
# energy, and a frame restored into another benchmark is refused with
# exit 1.
#
# Usage: figures_out_test.sh <ptb-figures> <ptb-stats> <results-dir>
# Exit: 0 when every file matches, 1 otherwise.
set -u

[[ $# -eq 3 ]] || {
  echo "usage: figures_out_test.sh <ptb-figures> <ptb-stats> <results-dir>"
  exit 1
}
figures="$1"
stats="$2"
results="$3"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
check() {  # check NAME CMD...: runs CMD, reports NAME as ok or FAIL
  local name="$1"
  shift
  if "$@"; then
    echo "ok   [$name]"
  else
    echo "FAIL [$name]"
    fail=1
  fi
}

"$figures" --jobs 4 --out "$tmp" --stats "$tmp/s.json:4096" all \
    > /dev/null || {
  echo "figures_out_test: ptb-figures exited $?"
  exit 1
}
# Every figure file on each side has its twin on the other.
for f in "$results"/*.txt "$results"/*.json; do
  name="$(basename "$f")"
  case "$name" in
    bench_micro.txt | stats_fig10.json) continue ;;  # not figure rows
  esac
  check "$name" cmp "$tmp/$name" "$f"
done
for f in "$tmp"/*.txt "$tmp"/*.json; do
  name="$(basename "$f")"
  [[ "$name" == s.json ]] && continue
  [[ -e "$results/$name" ]] || check "$name is checked in" false
done

"$stats" dump "$tmp/s.json" --json --no-volatile > "$tmp/stats_fig10.json"
check stats_fig10.json cmp "$tmp/stats_fig10.json" "$results/stats_fig10.json"

for jobs in 1 4; do
  "$figures" --only fft --jobs "$jobs" --trace "$tmp/fig12-j$jobs.trace" \
      > /dev/null || check "--trace at --jobs $jobs" false
done
check "fft trace at --jobs 1 and 4" cmp "$tmp/fig12-j1.trace" \
    "$tmp/fig12-j4.trace"

"$figures" --only fft --checkpoint-at "20000:$tmp/fft.ptbc" \
    | grep -o 'finished at cycle .*' > "$tmp/fft.captured"
"$figures" --only fft --restore-from "$tmp/fft.ptbc" \
    | grep -o 'finished at cycle .*' > "$tmp/fft.restored"
check "checkpoint captured" test -s "$tmp/fft.captured"
check "restored run finishes like the captured one" cmp "$tmp/fft.captured" \
    "$tmp/fft.restored"
"$figures" --only fft --checkpoint-at "0:$tmp/fft0.ptbc" \
    | grep -o 'finished at cycle .*' > "$tmp/fft0.captured"
"$figures" --only fft --restore-from "$tmp/fft0.ptbc" \
    | grep -o 'finished at cycle .*' > "$tmp/fft0.restored"
check "cycle-0 checkpoint captured" test -s "$tmp/fft0.captured"
check "cycle-0 restored run finishes like the captured one" \
    cmp "$tmp/fft0.captured" "$tmp/fft0.restored"
"$figures" --only radix --restore-from "$tmp/fft.ptbc" > /dev/null 2>&1
check "fft frame refused by radix (exit 1)" test $? -eq 1

if [[ $fail -ne 0 ]]; then
  echo "figures_out_test: FAILED"
  exit 1
fi
echo "figures_out_test: OK"

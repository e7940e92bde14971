#!/usr/bin/env bash
# ptb-figures --out, end to end: Table 2 (no simulation, well under a
# second) written to a scratch directory must match the checked-in
# results/ text and JSON byte for byte.
#
# Usage: figures_out_test.sh <ptb-figures> <results-dir>
# Exit: 0 when both files match, 1 otherwise.
set -u

[[ $# -eq 2 ]] || {
  echo "usage: figures_out_test.sh <ptb-figures> <results-dir>"
  exit 1
}
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$1" --out "$tmp" bench_table2_workloads > /dev/null || {
  echo "figures_out_test: ptb-figures exited $?"
  exit 1
}
fail=0
for ext in txt json; do
  if cmp "$tmp/bench_table2_workloads.$ext" \
         "$2/bench_table2_workloads.$ext"; then
    echo "ok   [bench_table2_workloads.$ext]"
  else
    fail=1
  fi
done
if [[ $fail -ne 0 ]]; then
  echo "figures_out_test: FAILED"
  exit 1
fi
echo "figures_out_test: OK"

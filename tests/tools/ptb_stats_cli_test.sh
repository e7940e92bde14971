#!/usr/bin/env bash
# CLI check for ptb-stats' reader: a valid dump passes `dump`, and the same
# dump with an extra member nested 1,000,000 arrays deep is refused with
# exit 1 (the JSON reader's depth limit), never a crash. A non-finite --tol
# is a usage error (exit 2): with a NaN tolerance no drift would compare
# as a difference, so the gate would pass anything.
#
# Usage: ptb_stats_cli_test.sh <ptb-stats-binary>
# Exit: 0 when both cases behave, 1 otherwise.
set -u

ptb_stats="${1:?usage: ptb_stats_cli_test.sh <ptb-stats-binary>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
fail=0

head='{"kind":"ptb-stats","schema_version":1,"bench":"cli","num_cores":1,'
head+='"cycles":1,"config_fingerprint":"0000000000000000","stats":[],'
head+='"distributions":[],"samples":{"every":0,"cycles":[],"columns":[],'
head+='"values":[]}'
printf '%s}\n' "$head" > "$tmp/valid.json"
{
  printf '%s,"extra":' "$head"
  head -c 1000000 /dev/zero | tr '\0' '['
  head -c 1000000 /dev/zero | tr '\0' ']'
  printf '}\n'
} > "$tmp/deep.json"

# run_case <name> <expected-exit> <ptb-stats-args...>
run_case() {
  local name="$1" want="$2" status
  shift 2
  "$ptb_stats" "$@" > "$tmp/out.txt" 2>&1
  status=$?
  if [[ $status -ne $want ]]; then
    echo "FAIL [$name]: exit $status, wanted $want"
    sed 's/^/    /' "$tmp/out.txt" | head -5
    fail=1
  else
    echo "ok   [$name]"
  fi
}

run_case "valid-dump" 0 dump "$tmp/valid.json"
run_case "deep-nesting" 1 dump "$tmp/deep.json"
run_case "regress-self" 0 regress "$tmp/valid.json" "$tmp/valid.json"
run_case "regress-tol-nan" 2 regress "$tmp/valid.json" "$tmp/valid.json" \
  --tol nan
run_case "regress-tol-inf" 2 regress "$tmp/valid.json" "$tmp/valid.json" \
  --tol=inf
run_case "diff-tol-nan" 2 diff "$tmp/valid.json" "$tmp/valid.json" --tol=nan
run_case "diff-tol-inf" 2 diff "$tmp/valid.json" "$tmp/valid.json" --tol inf

if [[ $fail -ne 0 ]]; then
  echo "ptb_stats_cli_test: FAILED"
  exit 1
fi
echo "ptb_stats_cli_test: OK"

#!/usr/bin/env bash
# CLI check for ptb-stats' reader: a valid dump passes `dump`, and the same
# dump with an extra member nested 1,000,000 arrays deep is refused with
# exit 1 (the JSON reader's depth limit), never a crash.
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

# run_case <name> <expected-exit> <file>
run_case() {
  local name="$1" want="$2" file="$3" status
  "$ptb_stats" dump "$file" > "$tmp/out.txt" 2>&1
  status=$?
  if [[ $status -ne $want ]]; then
    echo "FAIL [$name]: exit $status, wanted $want"
    sed 's/^/    /' "$tmp/out.txt" | head -5
    fail=1
  else
    echo "ok   [$name]"
  fi
}

run_case "valid-dump" 0 "$tmp/valid.json"
run_case "deep-nesting" 1 "$tmp/deep.json"

if [[ $fail -ne 0 ]]; then
  echo "ptb_stats_cli_test: FAILED"
  exit 1
fi
echo "ptb_stats_cli_test: OK"

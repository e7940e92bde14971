#!/usr/bin/env bash
# Strict command lines, end to end: malformed numbers, out-of-range values
# and empty values given to the real ptb-figures, ptb-serve, ptb-trace and
# ptb-stats binaries must each exit 2 with the offending flag named on
# stderr — never run with a truncated, wrapped or empty setting; so must
# an unknown figure name, which ptb-figures names on stderr, a removed
# ptb-serve flag (rejected, not ignored), and an unknown ptb-trace
# command, which is named before TRACE is read. Every case fails before
# any simulation, socket or file is touched; the timeout turns a binary
# that accepts its flags (and starts running or serving) into a failure
# rather than a hang. Every ptb-serve case passes --port 0, so a daemon
# that wrongly starts binds an ephemeral port: never the default 7580,
# where a concurrent run or another daemon would turn the accepted flag
# into a bind failure. One startup case rides along: a ptb-serve
# --cache-dir that cannot be created exits 1 naming the path (not an
# assertion abort).
#
# Usage: cli_flags_test.sh <ptb-figures> <ptb-serve> <ptb-trace> <ptb-stats>
# Exit: 0 when every case behaves, 1 otherwise.
set -u

[[ $# -eq 4 ]] || {
  echo "usage: cli_flags_test.sh <ptb-figures> <ptb-serve> <ptb-trace>" \
    "<ptb-stats>"
  exit 1
}
# Absolute paths: the cases run inside a scratch directory, so a daemon
# that wrongly starts creates its default cache there, not here.
bench="$(realpath "$1")"
serve="$(realpath "$2")"
trace="$(realpath "$3")"
stats="$(realpath "$4")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$tmp" || exit 1
fail=0

# expect <exit-status> <text-named-on-stderr> <binary> <args...>
expect() {
  local want="$1" text="$2" status
  shift 2
  timeout 30 "$@" > "$tmp/out.txt" 2> "$tmp/err.txt"
  status=$?
  local name="$(basename "$1") ${*:2}"
  if [[ $status -ne $want ]]; then
    echo "FAIL [$name]: exit $status, wanted $want"
    sed 's/^/    /' "$tmp/err.txt" | head -5
    fail=1
  elif ! grep -qF -e "$text" "$tmp/err.txt"; then
    echo "FAIL [$name]: stderr does not name $text"
    sed 's/^/    /' "$tmp/err.txt" | head -5
    fail=1
  else
    echo "ok   [$name]"
  fi
}

# run_case <flag-named-on-stderr> <binary> <args...>: a usage error.
run_case() { expect 2 "$@"; }

run_case --jobs "$bench" --jobs 2abc
run_case --jobs "$bench" --jobs=4294967297
run_case --out "$bench" --out=
run_case --only "$bench" --only=
run_case bench_fig99_bogus "$bench" bench_fig99_bogus
run_case --jobs "$serve" --port 0 --jobs 4294967297
run_case --jobs "$serve" --port 0 --jobs -4294967295
run_case --cache-max-bytes "$serve" --port 0 --cache-max-bytes -1
run_case --progress-cycles "$serve" --port 0 --progress-cycles 5000
run_case --log-file "$serve" --port 0 --log-file x
run_case --log-level "$serve" --port 0 --log-level debug
run_case --trace-spans "$serve" --port 0 --trace-spans 0
run_case --core "$trace" spin no-such.trace --core 4294967297
run_case bogus "$trace" bogus /dev/null
run_case --tol "$stats" regress new.json golden.json --tol nan
run_case --tol "$stats" diff a.json b.json --tol nan

# A directory under a regular file cannot be created, even by root.
: > "$tmp/plain-file"
expect 1 "cannot create cache directory '$tmp/plain-file/cache'" \
  "$serve" --port 0 --cache-dir "$tmp/plain-file/cache"

if [[ $fail -ne 0 ]]; then
  echo "cli_flags_test: FAILED"
  exit 1
fi
echo "cli_flags_test: OK"

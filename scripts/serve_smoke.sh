#!/usr/bin/env bash
# End-to-end smoke + short soak for the ptb-serve daemon (CI runs this on
# every push; see also tests/serve/ for the in-process coverage):
#   1. start the daemon on an ephemeral port with a fresh cache dir;
#   2. POST /v1/run?wait=1 twice: the first must miss, the second must hit
#      and the two bodies must be byte-identical (cmp); machines the
#      simulator would abort on (l1d.assoc = 0, 64 cores) must be a 400
#      naming the field, with /healthz still answering 200 afterwards;
#   3. POST /v1/sweep?wait=1 twice: the second may contain no "miss";
#   4. scrape /metrics and check the request/cache/queue/stage series, that
#      the soak's repeat hits came from the in-process memory tier, and
#      that the misses left no warm-checkpoint images or series behind;
#   5. stream GET /v1/jobs/{id}/events for a fresh async run: progress
#      events must arrive before the terminal one;
#   6. export GET /v1/trace through ptb-trace serve to Perfetto JSON (the
#      JSON is copied to $SERVE_SMOKE_ARTIFACT_DIR when set, for CI upload);
#   7. check the structured JSON access log (one line per request);
#   8. SIGTERM -> graceful drain, clean exit;
#   9. flip one bit of a digit in one sweep unit's cache entry, then
#      restart on the same cache dir: the very first request must be a hit
#      with the same bytes — the cache, not the process, owns the results —
#      and re-posting the sweep must re-simulate exactly the corrupted unit
#      (a miss, counted as corrupt) into the same artifact bytes.
#
# Dependency-free: HTTP via bash /dev/tcp (the daemon closes after each
# response, so reading to EOF is a complete exchange; streamed responses
# end at the terminal event, so the same read works there too).
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
# Exit: 0 all checks pass, 1 otherwise.
set -u

build_dir="${1:-build}"
serve_bin="$build_dir/tools/ptb-serve"
trace_bin="$build_dir/tools/ptb-trace"
[[ -x "$serve_bin" ]] || { echo "FAIL: $serve_bin not built"; exit 1; }
[[ -x "$trace_bin" ]] || { echo "FAIL: $trace_bin not built"; exit 1; }

tmp="$(mktemp -d)"
serve_pid=""
cleanup() {
  [[ -n "$serve_pid" ]] && kill -KILL "$serve_pid" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT
fail=0

run_body='{"benchmark":"fft","config":{"num_cores":2,"max_cycles":20000}}'
sweep_body='{"requests":[{"benchmark":"fft","config":{"num_cores":2,"max_cycles":20000}},{"benchmark":"radix","config":{"num_cores":2,"max_cycles":20000}}]}'

# http METHOD TARGET BODY OUTFILE — one exchange, full response to OUTFILE.
http() {
  local method="$1" target="$2" body="$3" out="$4"
  exec 3<>"/dev/tcp/127.0.0.1/$port" || return 1
  printf '%s %s HTTP/1.1\r\nHost: smoke\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "$method" "$target" "${#body}" "$body" >&3
  cat <&3 > "$out"
  exec 3<&- 3>&-
}

# body_of RESPONSE OUTFILE — strips the head (up to the first blank line).
body_of() {
  sed '1,/^\r*$/d' "$1" > "$2"
}

# raw_body_of RESPONSE OUTFILE — binary-safe head strip (sed is line-based
# and would mangle the span log's binary bytes): find the byte offset of
# the blank "\r\n" line ending the head and copy everything after it.
# (grep can't search for CRLFCRLF directly — a newline in the pattern
# splits it into multiple patterns — so match the blank line instead.)
raw_body_of() {
  local off
  off=$(grep -abm1 $'^\r$' "$1" | cut -d: -f1)
  [[ -n "$off" ]] || return 1
  tail -c +"$((off + 3))" "$1" > "$2"
}

check() { # check DESC CONDITION...
  local desc="$1"; shift
  if "$@"; then
    echo "ok   [$desc]"
  else
    echo "FAIL [$desc]"
    fail=1
  fi
}

start_daemon() { # start_daemon LOGFILE ACCESSLOG
  local log="$1" access="$2"
  "$serve_bin" --port 0 --cache-dir "$tmp/cache" --jobs 2 \
    --log-file "$access" --log-level debug > "$log" 2>&1 &
  serve_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^ptb-serve: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
           "$log")
    [[ -n "$port" ]] && return 0
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
  done
  echo "FAIL: daemon did not come up"; cat "$log"; exit 1
}

stop_daemon() { # stop_daemon LOGFILE
  local log="$1"
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  local rc=$?
  serve_pid=""
  check "clean shutdown (exit 0)" test "$rc" -eq 0
  check "drain logged" grep -q "shutdown complete" "$log"
}

# --- first daemon: miss -> hit, sweep, metrics, drain -----------------------
start_daemon "$tmp/serve1.log" "$tmp/access1.log"
echo "daemon up on port $port (cache $tmp/cache)"

http POST '/v1/run?wait=1' "$run_body" "$tmp/r1"
check "first run is 200" grep -q '^HTTP/1.1 200' "$tmp/r1"
check "first run is a miss" grep -qi '^x-ptb-cache: miss' "$tmp/r1"

http POST '/v1/run?wait=1' "$run_body" "$tmp/r2"
check "second run is a hit" grep -qi '^x-ptb-cache: hit' "$tmp/r2"
body_of "$tmp/r1" "$tmp/r1.body"
body_of "$tmp/r2" "$tmp/r2.body"
check "hit is byte-identical to the miss" cmp -s "$tmp/r1.body" "$tmp/r2.body"

# expect_rejected FIELD CONFIG — a machine the simulator would abort on is a
# 400 naming the field, never a dead daemon.
expect_rejected() {
  local field="$1" config="$2"
  http POST '/v1/run?wait=1' "{\"benchmark\":\"fft\",\"config\":$config}" \
    "$tmp/bad"
  check "bad $field is 400" grep -q '^HTTP/1.1 400' "$tmp/bad"
  body_of "$tmp/bad" "$tmp/bad.body"
  check "400 body names $field" grep -qF "$field" "$tmp/bad.body"
  http GET '/healthz' '' "$tmp/hz"
  check "healthz 200 after bad $field" grep -q '^HTTP/1.1 200' "$tmp/hz"
}
expect_rejected l1d.assoc '{"num_cores":2,"l1d":{"assoc":0}}'
expect_rejected num_cores '{"num_cores":64}'

http POST '/v1/sweep?wait=1' "$sweep_body" "$tmp/s1"
check "first sweep is 200" grep -q '^HTTP/1.1 200' "$tmp/s1"
body_of "$tmp/s1" "$tmp/s1.body"
http POST '/v1/sweep?wait=1' "$sweep_body" "$tmp/s2"
body_of "$tmp/s2" "$tmp/s2.body"
check "second sweep is all hits" bash -c \
  '! grep -q "\"cache\":\"miss\"" "$1"' -- "$tmp/s2.body"

# Short soak: hammer the cached answer, then make sure the counters moved.
for _ in $(seq 1 10); do
  http POST '/v1/run?wait=1' "$run_body" "$tmp/rs"
  grep -qi '^x-ptb-cache: hit' "$tmp/rs" || { echo "FAIL [soak hit]"; fail=1; }
done

http GET '/metrics' '' "$tmp/m"
body_of "$tmp/m" "$tmp/m.body"
for series in ptb_serve_http_requests ptb_serve_cache_hits \
              ptb_serve_cache_memory_hits \
              ptb_serve_cache_misses ptb_serve_queue_depth \
              ptb_serve_jobs_in_flight ptb_serve_http_request_ms \
              ptb_serve_http_streams ptb_serve_stage_simulate_ms \
              ptb_serve_stage_cache_probe_ms; do
  check "metrics expose $series" grep -q "$series" "$tmp/m.body"
done
check "no corrupt entries seen" grep -q '^ptb_serve_cache_corrupt 0' \
  "$tmp/m.body"
# The soak's 10 repeat hits re-read nothing: the key was verified once.
memory_hits=$(sed -n 's/^ptb_serve_cache_memory_hits \([0-9]*\).*/\1/p' \
              "$tmp/m.body")
check "soak hits served from memory (>= 10)" test "${memory_hits:-0}" -ge 10

# Every miss replays functional warmup: the daemon writes no warm-checkpoint
# images and exports no warm-image series or stage.
check "cache dir holds no ckpt-*.ptbc images" bash -c \
  '! compgen -G "$1/ckpt-*.ptbc" > /dev/null' -- "$tmp/cache"
check "metrics expose no warm-image series" bash -c \
  '! grep -qE "ptb_serve_cache_warm_|ptb_serve_stage_warm_restore_ms" "$1"' \
  -- "$tmp/m.body"

# --- live progress stream ---------------------------------------------------
# A config no earlier request used, so the run really simulates and emits
# progress events (a cache hit has nothing to report). The stream blocks
# until the terminal event, so reading to EOF captures the whole feed.
events_body='{"benchmark":"fft","config":{"num_cores":2,"max_cycles":26000}}'
http POST '/v1/run' "$events_body" "$tmp/ev202"
check "async run accepted (202)" grep -q '^HTTP/1.1 202' "$tmp/ev202"
body_of "$tmp/ev202" "$tmp/ev202.body"
job=$(sed -n 's/.*"job":"\([^"]*\)".*/\1/p' "$tmp/ev202.body")
check "202 body names the job" test -n "$job"
http GET "/v1/jobs/$job/events" '' "$tmp/ev"
check "events stream is chunked SSE" grep -qi '^transfer-encoding: chunked' \
  "$tmp/ev"
check "stream carries progress events" grep -q '^event: progress' "$tmp/ev"
check "stream ends with a terminal event" grep -qE '^event: (done|aborted)' \
  "$tmp/ev"
check "progress precedes the terminal event" bash -c \
  'p=$(grep -n "^event: progress" "$1" | head -1 | cut -d: -f1)
   t=$(grep -nE "^event: (done|aborted)" "$1" | head -1 | cut -d: -f1)
   [[ -n "$p" && -n "$t" && "$p" -lt "$t" ]]' -- "$tmp/ev"

# --- request-span trace export ----------------------------------------------
http GET '/v1/trace' '' "$tmp/tr"
check "trace endpoint is 200" grep -q '^HTTP/1.1 200' "$tmp/tr"
raw_body_of "$tmp/tr" "$tmp/trace.bin"
check "ptb-trace serve renders Perfetto JSON" \
  "$trace_bin" serve "$tmp/trace.bin" "$tmp/serve-trace.json"
check "trace JSON has traceEvents" grep -q '"traceEvents"' \
  "$tmp/serve-trace.json"
check "trace JSON names the simulate stage" grep -q '"name":"simulate"' \
  "$tmp/serve-trace.json"
if [[ -n "${SERVE_SMOKE_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$SERVE_SMOKE_ARTIFACT_DIR"
  cp "$tmp/serve-trace.json" "$SERVE_SMOKE_ARTIFACT_DIR/"
  echo "trace JSON copied to $SERVE_SMOKE_ARTIFACT_DIR/serve-trace.json"
fi

stop_daemon "$tmp/serve1.log"

# --- structured access log --------------------------------------------------
check "access log written" test -s "$tmp/access1.log"
check "access log covers /v1/run" grep -q '"path":"/v1/run"' \
  "$tmp/access1.log"
check "access log carries trace ids" grep -q '"trace":"' "$tmp/access1.log"
check "debug level adds stage durations" grep -q '"stages":{' \
  "$tmp/access1.log"
if command -v python3 >/dev/null 2>&1; then
  check "every access-log line is valid JSON" python3 -c '
import json, sys
for line in open(sys.argv[1]):
    if line.strip():
        json.loads(line)' "$tmp/access1.log"
fi

# --- corrupt one sweep unit's entry on disk ---------------------------------
# One bit of the first digit after "cycles": (a digit XOR 1 stays a digit,
# so the payload still parses); only the frame checksum can catch it. The
# radix unit, not r1's key, so the post-restart hit below still stands.
radix_key=$(grep -o '"key":"[0-9a-f]\{16\}","cache":"[a-z]*","artifact":{"schema_version":[0-9]*,"benchmark":"radix"' \
            "$tmp/s1.body" | sed -n 's/^"key":"\([0-9a-f]*\)".*/\1/p')
check "first sweep names the radix key" test -n "$radix_key"
entry="$tmp/cache/$radix_key.run"
off=$(grep -abo '"cycles":' "$entry" | head -1 | cut -d: -f1)
check "radix entry has a cycles field" test -n "$off"
if [[ -n "$off" ]]; then
  off=$((off + 9))
  digit=$(dd if="$entry" bs=1 skip="$off" count=1 2>/dev/null)
  printf '%s' "$((digit ^ 1))" |
    dd of="$entry" bs=1 seek="$off" conv=notrunc 2>/dev/null
fi

# --- second daemon, same cache dir: restart keeps the bytes -----------------
start_daemon "$tmp/serve2.log" "$tmp/access2.log"
http POST '/v1/run?wait=1' "$run_body" "$tmp/r3"
check "post-restart run is a hit" grep -qi '^x-ptb-cache: hit' "$tmp/r3"
body_of "$tmp/r3" "$tmp/r3.body"
check "post-restart bytes identical" cmp -s "$tmp/r1.body" "$tmp/r3.body"

http POST '/v1/sweep?wait=1' "$sweep_body" "$tmp/s3"
body_of "$tmp/s3" "$tmp/s3.body"
check "corrupted unit is the one miss" test \
  "$(grep -o '"cache":"miss"' "$tmp/s3.body" | wc -l)" -eq 1
check "corrupted unit re-simulated" grep -q \
  "\"key\":\"$radix_key\",\"cache\":\"miss\"" "$tmp/s3.body"
# The first sweep had the same hit/miss pattern (fft hit, radix miss), so
# apart from the job id the two bodies must match byte for byte.
check "re-simulated artifact identical" cmp -s \
  <(sed 's/^{"job":"[^"]*"//' "$tmp/s1.body") \
  <(sed 's/^{"job":"[^"]*"//' "$tmp/s3.body")
http GET '/metrics' '' "$tmp/m2"
body_of "$tmp/m2" "$tmp/m2.body"
check "corrupt entry counted" grep -q '^ptb_serve_cache_corrupt 1' \
  "$tmp/m2.body"
stop_daemon "$tmp/serve2.log"

if [[ $fail -ne 0 ]]; then
  echo "serve_smoke: FAILED"
  exit 1
fi
echo "serve_smoke: OK"

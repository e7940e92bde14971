#!/usr/bin/env bash
# End-to-end smoke + short soak for the ptb-serve daemon (CI runs this on
# every push; see also tests/serve/ for the in-process coverage):
#   1. start the daemon on an ephemeral port with a fresh cache dir;
#   2. POST /v1/run?wait=1 twice: the first must miss, the second must hit
#      and the two bodies must be byte-identical (cmp); machines the
#      simulator would abort on (l1d.assoc = 0, 64 cores) must be a 400
#      naming the field, with /healthz still answering 200 afterwards;
#   3. POST /v1/sweep?wait=1 twice: the second may contain no "miss";
#   4. soak: 210 repeat ?wait=1 hits, over whose last 200 the daemon's
#      VmRSS (/proc/PID/status) may grow by at most 1 MiB — an answered
#      job keeps no artifact bytes; then scrape /metrics and check the
#      request/cache/queue/stage series, that the soak's repeat hits came
#      from the in-process memory tier, and that the misses left no
#      warm-checkpoint images or series behind;
#   5. POST /v1/run (async) for a fresh config and poll GET /v1/jobs/{id}
#      until it is done: one unit, completed, a cache miss;
#   6. GET /v1/trace must be valid Perfetto JSON naming the simulate stage
#      (copied to $SERVE_SMOKE_ARTIFACT_DIR when set, for CI upload);
#   7. SIGTERM -> graceful drain, clean exit;
#   8. flip one bit of a digit in one sweep unit's cache entry, then
#      restart on the same cache dir: the very first request must be a hit
#      with the same bytes — the cache, not the process, owns the results —
#      and re-posting the sweep must re-simulate exactly the corrupted unit
#      (a miss, counted as corrupt) into the same artifact bytes.
#
# Dependency-free: HTTP via bash /dev/tcp (the daemon closes after each
# response, so reading to EOF is a complete exchange).
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
# Exit: 0 all checks pass, 1 otherwise.
set -u

build_dir="${1:-build}"
serve_bin="$build_dir/tools/ptb-serve"
[[ -x "$serve_bin" ]] || { echo "FAIL: $serve_bin not built"; exit 1; }

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

check() { # check DESC CONDITION...
  local desc="$1"; shift
  if "$@"; then
    echo "ok   [$desc]"
  else
    echo "FAIL [$desc]"
    fail=1
  fi
}

start_daemon() { # start_daemon LOGFILE
  local log="$1"
  "$serve_bin" --port 0 --cache-dir "$tmp/cache" --jobs 2 > "$log" 2>&1 &
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
start_daemon "$tmp/serve1.log"
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

# Short soak: hammer the cached answer, then make sure the counters moved
# and the daemon's resident memory did not. A unit holds its artifact only
# until its ?wait=1 answer takes it, so 200 answered hits leave the
# daemon's VmRSS where it was (+0.2 MiB measured: job metadata and
# spans); a job table that kept each answered 13.7 KB artifact grew it by
# 1.3-2.6 MiB. The first 10 hits warm the allocator before the baseline
# is read.
soak_hit() {
  http POST '/v1/run?wait=1' "$run_body" "$tmp/rs"
  grep -qi '^x-ptb-cache: hit' "$tmp/rs" || { echo "FAIL [soak hit]"; fail=1; }
}
vm_rss_kb() {
  sed -n 's/^VmRSS:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$serve_pid/status"
}
for _ in $(seq 1 10); do soak_hit; done
rss_before=$(vm_rss_kb)
for _ in $(seq 1 200); do soak_hit; done
rss_after=$(vm_rss_kb)
echo "daemon VmRSS ${rss_before} kB -> ${rss_after} kB over 200 hits"
check "soak VmRSS was read" test -n "$rss_before" -a -n "$rss_after"
check "soak VmRSS grew <= 1 MiB over 200 hits" \
  test "$(( ${rss_after:-0} - ${rss_before:-0} ))" -le 1024

http GET '/metrics' '' "$tmp/m"
body_of "$tmp/m" "$tmp/m.body"
for series in ptb_serve_http_requests ptb_serve_cache_hits \
              ptb_serve_cache_memory_hits \
              ptb_serve_cache_misses ptb_serve_queue_depth \
              ptb_serve_jobs_in_flight ptb_serve_http_request_ms \
              ptb_serve_stage_simulate_ms ptb_serve_stage_cache_probe_ms; do
  check "metrics expose $series" grep -q "$series" "$tmp/m.body"
done
check "no corrupt entries seen" grep -q '^ptb_serve_cache_corrupt 0' \
  "$tmp/m.body"
# The soak's 210 repeat hits re-read nothing: the key was verified once.
memory_hits=$(sed -n 's/^ptb_serve_cache_memory_hits \([0-9]*\).*/\1/p' \
              "$tmp/m.body")
check "soak hits served from memory (>= 210)" test "${memory_hits:-0}" -ge 210

# Every miss replays functional warmup: the daemon writes no warm-checkpoint
# images and exports no warm-image series or stage.
check "cache dir holds no ckpt-*.ptbc images" bash -c \
  '! compgen -G "$1/ckpt-*.ptbc" > /dev/null' -- "$tmp/cache"
check "metrics expose no warm-image series" bash -c \
  '! grep -qE "ptb_serve_cache_warm_|ptb_serve_stage_warm_restore_ms" "$1"' \
  -- "$tmp/m.body"

# --- async run, polled to completion ---------------------------------------
# A config no earlier request used, so the job really queues and simulates
# before the status document says done.
async_body='{"benchmark":"fft","config":{"num_cores":2,"max_cycles":26000}}'
http POST '/v1/run' "$async_body" "$tmp/a202"
check "async run accepted (202)" grep -q '^HTTP/1.1 202' "$tmp/a202"
body_of "$tmp/a202" "$tmp/a202.body"
job=$(sed -n 's/.*"job":"\([^"]*\)".*/\1/p' "$tmp/a202.body")
check "202 body names the job" test -n "$job"
for _ in $(seq 1 600); do
  http GET "/v1/jobs/$job" '' "$tmp/job"
  grep -qE '"state":"(done|failed)"' "$tmp/job" && break
  sleep 0.05
done
body_of "$tmp/job" "$tmp/job.body"
check "polled job reaches done" grep -q '"state":"done","total":1' \
  "$tmp/job.body"
check "polled job completed its unit" grep -q '"total":1,"completed":1' \
  "$tmp/job.body"
check "polled unit was simulated (miss)" grep -q '"cache":"miss"' \
  "$tmp/job.body"

# --- request-span trace export ----------------------------------------------
http GET '/v1/trace' '' "$tmp/tr"
check "trace endpoint is 200" grep -q '^HTTP/1.1 200' "$tmp/tr"
body_of "$tmp/tr" "$tmp/serve-trace.json"
check "trace JSON has traceEvents" grep -q '"traceEvents"' \
  "$tmp/serve-trace.json"
check "trace JSON names the simulate stage" grep -q '"name":"simulate"' \
  "$tmp/serve-trace.json"
if command -v python3 >/dev/null 2>&1; then
  check "trace is valid JSON" python3 -c '
import json, sys
json.load(open(sys.argv[1]))' "$tmp/serve-trace.json"
fi
if [[ -n "${SERVE_SMOKE_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$SERVE_SMOKE_ARTIFACT_DIR"
  cp "$tmp/serve-trace.json" "$SERVE_SMOKE_ARTIFACT_DIR/"
  echo "trace JSON copied to $SERVE_SMOKE_ARTIFACT_DIR/serve-trace.json"
fi

stop_daemon "$tmp/serve1.log"

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
start_daemon "$tmp/serve2.log"
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

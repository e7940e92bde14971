// Canonical --help text for the ptb-* tools, shared between the tools and
// the help-output golden test (tests/tools/help_text_test.cpp). Keeping the
// text in one header means the binaries cannot drift from what the golden
// pins: edit here, and the test forces the edit to be deliberate.
//
// Formatting contract (the golden enforces it): lines fit in 80 columns,
// spaces only, every subcommand the tool dispatches is listed, and the
// validation behavior a user would otherwise discover by surprise — the
// trace format-version check and the stats config-fingerprint check — is
// spelled out.
#pragma once

namespace ptb::tools {

// %s is the program name (argv[0]); printed via fprintf.
inline constexpr char kTraceUsage[] =
    "usage: %s COMMAND TRACE [ARGS]\n"
    "  summary TRACE            event counts, token totals, policy "
    "residency\n"
    "  flows TRACE              per-core-pair token-flow matrix\n"
    "  dvfs TRACE               DVFS mode residency and stall windows\n"
    "  spin TRACE [--core N]    spin-phase timeline (lock vs barrier)\n"
    "  deficit TRACE            budget-deficit histogram\n"
    "  export-json TRACE OUT    Chrome trace-event / Perfetto JSON\n"
    "  export-csv TRACE OUT     flat CSV (cycle,category,event,core,arg,"
    "value)\n"
    "  serve TRACE OUT          ptb-serve span log (GET /v1/trace) to "
    "Perfetto\n"
    "                           JSON: one thread track per request trace\n"
    "TRACE is a file written by a bench binary's --trace flag (for `serve`: "
    "the\n"
    "bytes of GET /v1/trace); OUT may be '-'\n"
    "for stdout. Traces carry a format version; a trace written by a "
    "different\n"
    "(older or newer) build is rejected as unparseable rather than "
    "misread —\n"
    "re-record it with this build's bench binaries.\n"
    "exit status: 0 ok, 1 unreadable/corrupt/version-mismatched trace, "
    "2 usage.\n";

// %s is the program name (argv[0]); printed via fprintf.
inline constexpr char kStatsUsage[] =
    "usage: %s COMMAND ARGS\n"
    "  dump FILE [--json] [--no-volatile]   validate + print one dump\n"
    "  diff A B [--tol FRAC] [--all]        compare two dumps (exit 1 on "
    "any\n"
    "                                       difference beyond FRAC, default "
    "0)\n"
    "  regress NEW GOLDEN [--tol FRAC]      CI gate: NEW vs golden, "
    "default\n"
    "                                       --tol 0.02\n"
    "FILE/A/B/NEW/GOLDEN are JSON dumps from a bench binary's --stats "
    "flag.\n"
    "Every dump embeds the config fingerprint of the run that produced it:\n"
    "`diff` prints a note when the fingerprints differ (you are comparing "
    "two\n"
    "different configurations) and diffs anyway; `regress` treats a "
    "fingerprint\n"
    "mismatch as a failure — regenerate the golden when a configuration "
    "change\n"
    "is intentional. Stats present only in NEW warn (new instrumentation "
    "is\n"
    "not a regression); stats missing from NEW fail.\n"
    "exit status: 0 ok, 1 difference/regression or unreadable input, 2 "
    "usage.\n";

// %s is the program name (argv[0]); printed via fprintf.
inline constexpr char kServeUsage[] =
    "usage: %s [OPTIONS]\n"
    "  --listen ADDR    IPv4 listen address (default 127.0.0.1)\n"
    "  --port N         TCP port; 0 picks an ephemeral port (default "
    "7580)\n"
    "  --jobs N         concurrent simulation workers (default 2)\n"
    "  --host-tokens N  admission token budget balanced across tenants\n"
    "                   (default: the --jobs value)\n"
    "  --policy P       spare-token policy: to_all | to_one (default "
    "to_all)\n"
    "  --cache-dir DIR  persistent content-addressed run cache (default\n"
    "                   .ptb-cache; created if absent)\n"
    "  --cache-max-bytes N\n"
    "                   disk-cache quota in bytes; oldest published "
    "entries\n"
    "                   are evicted after each store (default 0 = "
    "unbounded)\n"
    "  --queue-max N    queued-unit cap before requests get 429 (default "
    "256)\n"
    "  --http-threads N HTTP worker threads (default 4)\n"
    "  --trace-spans N  request-span ring capacity for GET /v1/trace\n"
    "                   (default 4096; 0 disables tracing entirely)\n"
    "  --progress-cycles N\n"
    "                   simulated cycles between job progress events "
    "(default\n"
    "                   5000; 0 disables progress events)\n"
    "  --log-file PATH  structured JSON access log, one line per request\n"
    "                   ('-' = stderr; default: no access log)\n"
    "  --log-level L    access-log level: error | info | debug (default "
    "info;\n"
    "                   debug adds per-stage durations and tokens held)\n"
    "Serves POST /v1/run, POST /v1/sweep, GET /v1/jobs/{id},\n"
    "GET /v1/jobs/{id}/events (live progress stream, chunked SSE framing),\n"
    "GET /v1/results/{key}, GET /v1/trace (request-span log; ?format=json "
    "for\n"
    "Perfetto), GET /metrics (Prometheus), GET /healthz.\n"
    "Repeat requests are answered from the cache byte-identically; corrupt\n"
    "cache entries are rejected and re-simulated, never served. "
    "SIGINT/SIGTERM\n"
    "drain gracefully: running simulations finish, queued ones fail.\n"
    "exit status: 0 clean shutdown, 1 startup failure, 2 usage.\n";

}  // namespace ptb::tools

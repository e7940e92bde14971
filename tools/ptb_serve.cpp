// ptb-serve: simulation-as-a-service daemon over the ptb_serve library
// (src/serve/server.hpp). See help_text.hpp kServeUsage for routes and
// flags. The process is a thin shell: strict flag parsing (every malformed
// value is a usage error, exit 2 — a daemon silently "fixing" a typoed
// port would listen somewhere the operator did not ask for), then block in
// sigwait until SIGINT/SIGTERM and shut the server down gracefully
// (running simulations finish and are persisted; queued units fail fast).
//
// This file is host-side tooling (like ptb-trace/ptb-stats): it may touch
// signals and sleep, but no simulation result ever passes through it —
// results are produced inside ptb_sim and served verbatim from the cache.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/config.hpp"
#include "help_text.hpp"
#include "serve/server.hpp"
#include "tool_util.hpp"

namespace {

int usage(const char* argv0, int rc) {
  std::fprintf(rc == 0 ? stdout : stderr, ptb::tools::kServeUsage, argv0);
  return rc;
}

bool parse_u32_flag(const char* argv0, const char* flag, const char* value,
                    std::uint32_t min, std::uint32_t max,
                    std::uint32_t& out) {
  if (!ptb::tools::parse_u32_arg(value, out) || out < min || out > max) {
    std::fprintf(stderr, "%s: bad %s value '%s' (expected %u..%u)\n", argv0,
                 flag, value, min, max);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen = "127.0.0.1";
  std::uint32_t port = 7580;
  std::uint32_t jobs = 2;
  std::uint32_t host_tokens = 0;  // 0 = default to --jobs
  std::uint32_t queue_max = 256;
  std::uint32_t http_threads = 4;
  std::string cache_dir = ".ptb-cache";
  std::uint64_t cache_max_bytes = 0;  // 0 = unbounded
  ptb::PtbPolicy policy = ptb::PtbPolicy::kToAll;
  std::uint32_t trace_spans = 4096;     // 0 = tracing off
  std::uint32_t progress_cycles = 5000;  // 0 = no progress events
  std::string log_file;                  // "" = access log off
  ptb::serve::LogLevel log_level = ptb::serve::LogLevel::kInfo;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0],
                     arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      return usage(argv[0], 0);
    } else if (arg == "--listen") {
      const char* v = need_value();
      if (v == nullptr) return 2;
      listen = v;
      if (listen.empty()) {
        std::fprintf(stderr, "%s: bad --listen value (empty)\n", argv[0]);
        return 2;
      }
    } else if (arg == "--port") {
      const char* v = need_value();
      if (v == nullptr ||
          !parse_u32_flag(argv[0], "--port", v, 0, 65535, port)) {
        return 2;
      }
    } else if (arg == "--jobs") {
      const char* v = need_value();
      if (v == nullptr ||
          !parse_u32_flag(argv[0], "--jobs", v, 1, 4096, jobs)) {
        return 2;
      }
    } else if (arg == "--host-tokens") {
      const char* v = need_value();
      if (v == nullptr || !parse_u32_flag(argv[0], "--host-tokens", v, 1,
                                          1u << 20, host_tokens)) {
        return 2;
      }
    } else if (arg == "--queue-max") {
      const char* v = need_value();
      if (v == nullptr || !parse_u32_flag(argv[0], "--queue-max", v, 1,
                                          1u << 20, queue_max)) {
        return 2;
      }
    } else if (arg == "--http-threads") {
      const char* v = need_value();
      if (v == nullptr || !parse_u32_flag(argv[0], "--http-threads", v, 1,
                                          256, http_threads)) {
        return 2;
      }
    } else if (arg == "--cache-dir") {
      const char* v = need_value();
      if (v == nullptr) return 2;
      cache_dir = v;
      if (cache_dir.empty()) {
        std::fprintf(stderr, "%s: bad --cache-dir value (empty)\n", argv[0]);
        return 2;
      }
    } else if (arg == "--cache-max-bytes") {
      const char* v = need_value();
      if (v == nullptr) return 2;
      if (!ptb::tools::parse_u64_arg(v, cache_max_bytes)) {
        std::fprintf(stderr,
                     "%s: bad --cache-max-bytes value '%s' (expected a "
                     "byte count, 0 = unbounded)\n",
                     argv[0], v);
        return 2;
      }
    } else if (arg == "--trace-spans") {
      const char* v = need_value();
      if (v == nullptr || !parse_u32_flag(argv[0], "--trace-spans", v, 0,
                                          1u << 24, trace_spans)) {
        return 2;
      }
    } else if (arg == "--progress-cycles") {
      const char* v = need_value();
      if (v == nullptr || !parse_u32_flag(argv[0], "--progress-cycles", v, 0,
                                          1u << 30, progress_cycles)) {
        return 2;
      }
    } else if (arg == "--log-file") {
      const char* v = need_value();
      if (v == nullptr) return 2;
      log_file = v;
      if (log_file.empty()) {
        std::fprintf(stderr, "%s: bad --log-file value (empty)\n", argv[0]);
        return 2;
      }
    } else if (arg == "--log-level") {
      const char* v = need_value();
      if (v == nullptr) return 2;
      if (!ptb::serve::parse_log_level(v, log_level)) {
        std::fprintf(stderr,
                     "%s: bad --log-level value '%s' (expected error, info "
                     "or debug)\n",
                     argv[0], v);
        return 2;
      }
    } else if (arg == "--policy") {
      const char* v = need_value();
      if (v == nullptr) return 2;
      if (!ptb::parse_enum(v, policy) ||
          policy == ptb::PtbPolicy::kDynamic) {
        std::fprintf(stderr,
                     "%s: bad --policy value '%s' (expected to_all or "
                     "to_one)\n",
                     argv[0], v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      return usage(argv[0], 2);
    }
  }
  if (host_tokens == 0) host_tokens = jobs;

  // Block the shutdown signals before any thread exists, so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  ptb::serve::ServiceOptions sopts;
  sopts.cache_dir = cache_dir;
  sopts.sim_workers = jobs;
  sopts.host_tokens = host_tokens;
  sopts.admission_policy = policy;
  sopts.queue_max = queue_max;
  sopts.cache_max_bytes = cache_max_bytes;
  sopts.trace_spans = trace_spans;
  sopts.progress_every_cycles = progress_cycles;
  sopts.log_file = log_file;
  sopts.log_level = log_level;

  ptb::serve::Server server(sopts, listen,
                            static_cast<std::uint16_t>(port), http_threads);
  std::string err;
  if (!server.start(err)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
    return 1;
  }
  // Scripts parse this line (scripts/serve_smoke.sh) — the bound port
  // matters when --port 0 asked for an ephemeral one.
  std::printf("ptb-serve: listening on %s:%u (cache %s, jobs %u, tokens "
              "%u, policy %s)\n",
              listen.c_str(), server.port(), cache_dir.c_str(), jobs,
              host_tokens, ptb::enum_name(policy));
  std::fflush(stdout);

  int sig = 0;
  while (sigwait(&sigs, &sig) != 0) {
  }
  std::printf("ptb-serve: received %s, draining\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  server.stop();
  std::printf("ptb-serve: shutdown complete\n");
  return 0;
}

// ptb-trace: inspect a binary event trace captured with the bench
// binaries' --trace flag (or EventTrace::save from a test/example). The
// subcommands and exit codes are documented once, in kTraceUsage
// (help_text.hpp).
#include <cstdio>
#include <cstring>
#include <string>

#include "common/flags.hpp"
#include "help_text.hpp"
#include "tool_util.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace {

int usage(const char* argv0, int rc) {
  std::fprintf(rc == 0 ? stdout : stderr, ptb::tools::kTraceUsage, argv0);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0)) {
    return usage(argv[0], 0);
  }
  if (argc < 3) return usage(argv[0], 2);
  const std::string cmd = argv[1];
  std::string path = argv[2];

  // Every usage error (unknown command, wrong arity, bad --core) is
  // reported before the trace is read.
  const bool is_export = cmd == "export-json" || cmd == "export-csv";
  if (!is_export && cmd != "summary" && cmd != "flows" && cmd != "dvfs" &&
      cmd != "spin" && cmd != "deficit") {
    std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0], cmd.c_str());
    return usage(argv[0], 2);
  }
  if (is_export && argc != 4) return usage(argv[0], 2);
  std::uint32_t only_core = ptb::kNoCore;
  if (cmd == "spin") {
    const ptb::FlagParse p = ptb::parse_flags(
        {{"--core", "", "N", {},
          ptb::flag_uint(only_core, 0, ptb::kNoCore - 1)}},
        argc - 1, argv + 1, 1);
    if (!p.error.empty()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], p.error.c_str());
      return 2;
    }
    if (p.positional.size() != 1) return usage(argv[0], 2);
    path = p.positional[0];
  }

  ptb::EventTrace trace;
  if (!ptb::EventTrace::load(path, trace)) {
    std::fprintf(stderr,
                 "%s: cannot parse '%s' as a PTB event trace (corrupt, or "
                 "written by a build with a different trace format "
                 "version)\n",
                 argv[0], path.c_str());
    return 1;
  }

  if (cmd == "summary") {
    std::fputs(ptb::render_summary(trace).c_str(), stdout);
    return 0;
  }
  if (cmd == "flows") {
    std::fputs(ptb::render_flows(trace).c_str(), stdout);
    return 0;
  }
  if (cmd == "dvfs") {
    std::fputs(ptb::render_dvfs(trace).c_str(), stdout);
    return 0;
  }
  if (cmd == "spin") {
    std::fputs(ptb::render_spin(trace, only_core).c_str(), stdout);
    return 0;
  }
  if (cmd == "deficit") {
    std::fputs(ptb::render_deficit(trace).c_str(), stdout);
    return 0;
  }
  const std::string text = cmd == "export-json"
                               ? ptb::trace_chrome_json(trace)
                               : ptb::trace_csv(trace);
  if (!ptb::tools::write_text(argv[3], text)) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0], argv[3]);
    return 1;
  }
  return 0;
}

// Golden test for the ptb-* tools' --help output (tools/help_text.hpp).
// The tools print these strings verbatim, so pinning the header pins the
// binaries' help: an edit to the help text must come through here too.
//
// Beyond the byte-pin, the test enforces the documentation contract the
// ISSUE called out: the help must name every subcommand the tool actually
// dispatches, and must document the two validation behaviors users hit in
// practice — ptb-trace rejecting traces with a mismatched format version,
// and ptb-stats diff/regress checking the embedded config fingerprint.
#include "help_text.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace {

std::string rendered(const char* fmt) {
  char buf[4096];
  const int n = std::snprintf(buf, sizeof(buf), fmt, "ptb-tool");
  EXPECT_GT(n, 0);
  EXPECT_LT(static_cast<std::size_t>(n), sizeof(buf));
  return std::string(buf, static_cast<std::size_t>(n));
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  EXPECT_TRUE(cur.empty()) << "help text must end with a newline";
  return lines;
}

void expect_well_formed(const std::string& text) {
  EXPECT_EQ(text.find('\t'), std::string::npos) << "spaces only, no tabs";
  for (const std::string& line : lines_of(text)) {
    EXPECT_LE(line.size(), 80u) << "line overflows 80 columns: " << line;
    if (!line.empty()) {
      EXPECT_NE(line.back(), ' ') << "trailing whitespace: " << line;
    }
  }
}

TEST(HelpText, TraceHelpDocumentsEverySubcommand) {
  const std::string h = rendered(ptb::tools::kTraceUsage);
  // One entry per dispatch branch in tools/ptb_trace.cpp main().
  for (const char* cmd : {"summary", "flows", "dvfs", "spin", "deficit",
                          "export-json", "export-csv", "serve"}) {
    EXPECT_NE(h.find(cmd), std::string::npos) << cmd;
  }
  EXPECT_NE(h.find("--core"), std::string::npos);
}

TEST(HelpText, TraceHelpDocumentsFormatVersionRejection) {
  const std::string h = rendered(ptb::tools::kTraceUsage);
  EXPECT_NE(h.find("format version"), std::string::npos);
  EXPECT_NE(h.find("rejected"), std::string::npos);
  EXPECT_NE(h.find("exit status"), std::string::npos);
}

TEST(HelpText, StatsHelpDocumentsEverySubcommand) {
  const std::string h = rendered(ptb::tools::kStatsUsage);
  // One entry per dispatch branch in tools/ptb_stats.cpp main().
  for (const char* cmd : {"dump", "diff", "regress"}) {
    EXPECT_NE(h.find(cmd), std::string::npos) << cmd;
  }
  for (const char* flag : {"--json", "--no-volatile", "--tol", "--all"}) {
    EXPECT_NE(h.find(flag), std::string::npos) << flag;
  }
}

TEST(HelpText, StatsHelpDocumentsFingerprintCheck) {
  const std::string h = rendered(ptb::tools::kStatsUsage);
  EXPECT_NE(h.find("config fingerprint"), std::string::npos);
  // diff warns-and-continues; regress hard-fails — both must be spelled out.
  EXPECT_NE(h.find("diffs anyway"), std::string::npos);
  EXPECT_NE(h.find("failure"), std::string::npos);
  EXPECT_NE(h.find("exit status"), std::string::npos);
}

TEST(HelpText, ServeHelpDocumentsEveryFlagAndRoute) {
  const std::string h = rendered(ptb::tools::kServeUsage);
  // One entry per flag the daemon's argv loop dispatches
  // (tools/ptb_serve.cpp main()).
  for (const char* flag :
       {"--listen", "--port", "--jobs", "--host-tokens", "--policy",
        "--cache-dir", "--cache-max-bytes", "--queue-max", "--http-threads",
        "--trace-spans", "--progress-cycles", "--log-file", "--log-level"}) {
    EXPECT_NE(h.find(flag), std::string::npos) << flag;
  }
  // One entry per route Server::handle dispatches.
  for (const char* route :
       {"/v1/run", "/v1/sweep", "/v1/jobs/{id}", "/v1/jobs/{id}/events",
        "/v1/results/{key}", "/v1/trace", "/metrics", "/healthz"}) {
    EXPECT_NE(h.find(route), std::string::npos) << route;
  }
}

TEST(HelpText, ServeHelpDocumentsCacheAndDrainBehavior) {
  const std::string h = rendered(ptb::tools::kServeUsage);
  // The two behaviors an operator would otherwise discover by surprise:
  // repeat answers come from the cache byte-identically (corrupt entries
  // re-simulate, never serve), and shutdown drains rather than kills.
  EXPECT_NE(h.find("byte-identically"), std::string::npos);
  EXPECT_NE(h.find("corrupt"), std::string::npos);
  EXPECT_NE(h.find("re-simulated"), std::string::npos);
  EXPECT_NE(h.find("drain"), std::string::npos);
  EXPECT_NE(h.find("exit status"), std::string::npos);
}

TEST(HelpText, FormattingContract) {
  expect_well_formed(rendered(ptb::tools::kTraceUsage));
  expect_well_formed(rendered(ptb::tools::kStatsUsage));
  expect_well_formed(rendered(ptb::tools::kServeUsage));
}

// The byte-pin: sizes change whenever the text changes, which is enough to
// force a deliberate visit here (the substring tests above then re-verify
// the documentation contract) without duplicating the whole blob.
TEST(HelpText, GoldenShape) {
  const std::string trace = rendered(ptb::tools::kTraceUsage);
  const std::string stats = rendered(ptb::tools::kStatsUsage);
  const std::string serve = rendered(ptb::tools::kServeUsage);
  EXPECT_EQ(lines_of(trace).size(), 16u);
  EXPECT_EQ(lines_of(stats).size(), 14u);
  EXPECT_EQ(lines_of(serve).size(), 31u);
}

}  // namespace

// ptb-stats: inspect and compare stats dumps written by the bench
// binaries' --stats flag (or reporting.hpp stats_json from a test). The
// subcommands, flags and exit codes are documented once, in kStatsUsage
// (help_text.hpp).
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/file.hpp"
#include "common/flags.hpp"
#include "common/format.hpp"
#include "help_text.hpp"
#include "stats/dump.hpp"
#include "stats/stats.hpp"
#include "tool_util.hpp"

namespace {

int usage(const char* argv0, int rc) {
  std::fprintf(rc == 0 ? stdout : stderr, ptb::tools::kStatsUsage, argv0);
  return rc;
}

bool load_dump(const char* argv0, const std::string& path,
               ptb::StatsDump& out) {
  std::string text;
  if (!ptb::read_file(path, text)) {
    std::fprintf(stderr, "%s: cannot read '%s'\n", argv0, path.c_str());
    return false;
  }
  if (!ptb::StatsDump::parse_json(text, out)) {
    std::fprintf(stderr, "%s: cannot parse '%s' as a PTB stats dump\n",
                 argv0, path.c_str());
    return false;
  }
  return true;
}

void print_dump(const ptb::StatsDump& d, bool include_volatile) {
  std::printf("bench:        %s\n", d.bench.c_str());
  std::printf("cores:        %u\n", d.num_cores);
  std::printf("cycles:       %llu\n",
              static_cast<unsigned long long>(d.cycles));
  std::printf("fingerprint:  %s\n", ptb::hex16(d.config_fingerprint).c_str());
  std::printf("scalars:      %zu\n", d.scalars.size());
  std::printf("histograms:   %zu\n", d.dists.size());
  if (d.sample_every > 0) {
    std::printf("samples:      %zu points x %zu columns (every %llu "
                "cycles)\n",
                d.sample_cycles.size(), d.sample_columns.size(),
                static_cast<unsigned long long>(d.sample_every));
  }
  std::printf("\n");
  for (const auto& s : d.scalars) {
    if (s.is_volatile && !include_volatile) continue;
    std::string value;
    if (s.integral) {
      value = std::to_string(s.u64);
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", s.value);
      value = buf;
    }
    std::printf("%-44s %20s  %s%s\n", s.name.c_str(), value.c_str(),
                ptb::stat_kind_name(s.kind),
                s.is_volatile ? " (volatile)" : "");
  }
  for (const auto& h : d.dists) {
    std::printf("%-44s %20llu  histogram [%g, %g) sum=%g\n", h.name.c_str(),
                static_cast<unsigned long long>(h.total), h.lo, h.hi, h.sum);
  }
}

void print_diff_entries(const std::vector<ptb::StatsDiffEntry>& entries) {
  for (const auto& e : entries) {
    if (e.only_in_a) {
      std::printf("%-44s only in A\n", e.name.c_str());
    } else if (e.only_in_b) {
      std::printf("%-44s only in B\n", e.name.c_str());
    } else {
      std::printf("%-44s A=%.17g B=%.17g rel=%.3e\n", e.name.c_str(), e.a,
                  e.b, e.rel);
    }
  }
}

// Parses a subcommand's argv (argv[0] = the subcommand) into `files`;
// false after printing the problem when a flag is bad or the number of
// file arguments is not `want`.
bool parse_cmd(const char* argv0, int argc, char** argv,
               const std::vector<ptb::FlagRow>& rows, std::size_t want,
               std::vector<std::string>& files) {
  ptb::FlagParse p = ptb::parse_flags(rows, argc, argv, want);
  if (!p.error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv0, p.error.c_str());
    return false;
  }
  if (p.positional.size() != want) {
    usage(argv0, 2);
    return false;
  }
  files = std::move(p.positional);
  return true;
}

ptb::FlagRow tol_row(double& tol) {
  return {"--tol", "", "FRAC", {},
          ptb::flag_real(tol, 0.0, std::numeric_limits<double>::infinity())};
}

int cmd_dump(const char* argv0, int argc, char** argv) {
  bool as_json = false;
  bool no_volatile = false;
  std::vector<std::string> files;
  if (!parse_cmd(argv0, argc, argv,
                 {{"--json", "", "", {}, ptb::flag_switch(as_json)},
                  {"--no-volatile", "", "", {},
                   ptb::flag_switch(no_volatile)}},
                 1, files)) {
    return 2;
  }
  ptb::StatsDump d;
  if (!load_dump(argv0, files[0], d)) return 1;
  if (as_json) {
    if (!ptb::tools::write_text("-", d.to_json(!no_volatile))) return 1;
  } else {
    print_dump(d, !no_volatile);
  }
  return 0;
}

int cmd_diff(const char* argv0, int argc, char** argv) {
  double tol = 0.0;
  bool include_volatile = false;
  std::vector<std::string> files;
  if (!parse_cmd(argv0, argc, argv,
                 {tol_row(tol),
                  {"--all", "", "", {}, ptb::flag_switch(include_volatile)}},
                 2, files)) {
    return 2;
  }
  ptb::StatsDump a, b;
  if (!load_dump(argv0, files[0], a) || !load_dump(argv0, files[1], b)) {
    return 1;
  }
  if (a.config_fingerprint != b.config_fingerprint) {
    std::printf("note: config fingerprints differ (%s vs %s) — "
                "comparing runs of different configurations\n",
                ptb::hex16(a.config_fingerprint).c_str(),
                ptb::hex16(b.config_fingerprint).c_str());
  }
  const auto entries = ptb::diff_stats(a, b, tol, include_volatile);
  if (entries.empty()) {
    std::printf("identical: no stats differ (tol=%g)\n", tol);
    return 0;
  }
  print_diff_entries(entries);
  std::printf("%zu stat(s) differ (tol=%g)\n", entries.size(), tol);
  return 1;
}

int cmd_regress(const char* argv0, int argc, char** argv) {
  double tol = 0.02;
  std::vector<std::string> files;
  if (!parse_cmd(argv0, argc, argv, {tol_row(tol)}, 2, files)) return 2;
  ptb::StatsDump fresh, golden;
  if (!load_dump(argv0, files[0], fresh) ||
      !load_dump(argv0, files[1], golden)) {
    return 1;
  }
  int failures = 0;
  if (fresh.config_fingerprint != golden.config_fingerprint) {
    std::fprintf(stderr,
                 "FAIL: config fingerprint %s does not match golden %s — "
                 "regenerate the golden if the configuration change is "
                 "intentional\n",
                 ptb::hex16(fresh.config_fingerprint).c_str(),
                 ptb::hex16(golden.config_fingerprint).c_str());
    ++failures;
  }
  // diff_stats(fresh, golden): only_in_b = stat the golden has but the new
  // run lost (a regression); only_in_a = newly added instrumentation (fine).
  for (const auto& e : ptb::diff_stats(fresh, golden, tol, false)) {
    if (e.only_in_a) {
      std::printf("warn: '%s' is new (absent from golden)\n",
                  e.name.c_str());
      continue;
    }
    if (e.only_in_b) {
      std::fprintf(stderr, "FAIL: golden stat '%s' missing from new run\n",
                   e.name.c_str());
    } else {
      std::fprintf(stderr,
                   "FAIL: '%s' drifted: new=%.17g golden=%.17g "
                   "(rel=%.3e > tol=%g)\n",
                   e.name.c_str(), e.a, e.b, e.rel, tol);
    }
    ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d regression(s) against '%s'\n", failures,
                 files[1].c_str());
    return 1;
  }
  std::printf("ok: within tol=%g of golden '%s'\n", tol, files[1].c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0)) {
    return usage(argv[0], 0);
  }
  if (argc < 3) return usage(argv[0], 2);
  const std::string cmd = argv[1];
  if (cmd == "dump") return cmd_dump(argv[0], argc - 1, argv + 1);
  if (cmd == "diff") return cmd_diff(argv[0], argc - 1, argv + 1);
  if (cmd == "regress") return cmd_regress(argv[0], argc - 1, argv + 1);
  std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0], cmd.c_str());
  return usage(argv[0], 2);
}

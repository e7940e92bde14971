// ptb-stats: inspect and compare stats dumps written by the bench
// binaries' --stats flag (or reporting.hpp stats_json from a test).
//
//   ptb-stats dump FILE [--json] [--no-volatile]
//       validate FILE and print a human-readable table; --json re-emits the
//       canonical JSON serialization instead (useful to normalize a dump
//       captured with volatile stats into a machine-independent golden).
//   ptb-stats diff A B [--tol FRAC] [--all]
//       compare the non-volatile scalars of two dumps; exits 1 when any
//       stat differs by more than FRAC relative (default 0 = exact).
//       --all widens the comparison to volatile stats too.
//   ptb-stats regress NEW GOLDEN [--tol FRAC]
//       regression gate for CI: exits 1 when NEW is missing a golden stat,
//       was produced under a different config fingerprint, or drifts past
//       FRAC relative tolerance (default 0.02). Stats that are new in NEW
//       but absent from GOLDEN only warn — adding instrumentation is not a
//       regression.
//
// Exits 0 on success, 1 on a detected difference/regression or unreadable
// input, 2 on bad usage.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/file.hpp"
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

bool parse_tol(const char* argv0, const char* s, double& tol) {
  if (!ptb::tools::parse_double_arg(s, tol) || tol < 0.0) {
    std::fprintf(stderr, "%s: bad --tol value '%s'\n", argv0, s);
    return false;
  }
  return true;
}

int cmd_dump(const char* argv0, int argc, char** argv) {
  // argv[0] = FILE, then flags.
  if (argc < 1) return usage(argv0, 2);
  bool as_json = false;
  bool include_volatile = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(argv[i], "--no-volatile") == 0) {
      include_volatile = false;
    } else {
      return usage(argv0, 2);
    }
  }
  ptb::StatsDump d;
  if (!load_dump(argv0, argv[0], d)) return 1;
  if (as_json) {
    if (!ptb::tools::write_text("-", d.to_json(include_volatile))) return 1;
  } else {
    print_dump(d, include_volatile);
  }
  return 0;
}

int cmd_diff(const char* argv0, int argc, char** argv) {
  if (argc < 2) return usage(argv0, 2);
  double tol = 0.0;
  bool include_volatile = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
      if (!parse_tol(argv0, argv[++i], tol)) return 2;
    } else if (std::strcmp(argv[i], "--all") == 0) {
      include_volatile = true;
    } else {
      return usage(argv0, 2);
    }
  }
  ptb::StatsDump a, b;
  if (!load_dump(argv0, argv[0], a) || !load_dump(argv0, argv[1], b)) {
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
  if (argc < 2) return usage(argv0, 2);
  double tol = 0.02;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
      if (!parse_tol(argv0, argv[++i], tol)) return 2;
    } else {
      return usage(argv0, 2);
    }
  }
  ptb::StatsDump fresh, golden;
  if (!load_dump(argv0, argv[0], fresh) ||
      !load_dump(argv0, argv[1], golden)) {
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
                 argv[1]);
    return 1;
  }
  std::printf("ok: within tol=%g of golden '%s'\n", tol, argv[1]);
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
  if (cmd == "dump") return cmd_dump(argv[0], argc - 2, argv + 2);
  if (cmd == "diff") return cmd_diff(argv[0], argc - 2, argv + 2);
  if (cmd == "regress") return cmd_regress(argv[0], argc - 2, argv + 2);
  std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0], cmd.c_str());
  return usage(argv[0], 2);
}

// Immutable snapshot of a run's stats registry — the artifact carried out
// of a run (RunResult::stats), written to disk by ptb-figures' --stats
// flag, and consumed by the ptb-stats CLI (dump | diff | regress).
//
// Two expositions:
//   - JSON (the on-disk interchange format; parse_json reads it back), with
//     name-sorted stats so equal registries serialize to equal bytes. The
//     wall-clock self-profiling gauges are marked volatile; serializing
//     with include_volatile=false yields a dump that is a pure function of
//     (profile, config, seed) — byte-identical at any --jobs value.
//   - Prometheus text exposition (counters/gauges + histogram buckets),
//     for scraping a fleet of simulation runners.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "stats/stats.hpp"

namespace ptb {

struct StatsDump {
  static constexpr std::uint32_t kSchemaVersion = 1;

  // Run metadata (stamped by the producer).
  std::string bench;
  std::uint32_t num_cores = 0;
  std::uint64_t cycles = 0;
  /// sim/reporting.hpp config_fingerprint of the producing run; diff and
  /// regress use it to tell "code changed" from "configuration changed".
  std::uint64_t config_fingerprint = 0;

  struct Scalar {
    std::string name;
    std::string desc;
    StatKind kind = StatKind::kGauge;
    bool is_volatile = false;
    bool integral = false;
    double value = 0.0;
    std::uint64_t u64 = 0;  // exact value when integral
  };
  struct Dist {
    std::string name;
    std::string desc;
    double lo = 0.0;
    double hi = 0.0;
    double sum = 0.0;
    std::uint64_t total = 0;
    std::vector<std::uint64_t> counts;
  };

  std::vector<Scalar> scalars;  // name-sorted
  std::vector<Dist> dists;      // name-sorted

  // Columnar time series (empty unless RunOptions::stats_sample_every).
  Cycle sample_every = 0;
  std::vector<Cycle> sample_cycles;
  std::vector<std::string> sample_columns;
  std::vector<std::vector<double>> sample_values;  // column-major

  /// Snapshots `reg` (name-sorted); `samples` may be null.
  static StatsDump snapshot(const StatsRegistry& reg,
                            const SampleBuffer* samples, Cycle sample_every);

  const Scalar* find(std::string_view name) const;

  std::string to_json(bool include_volatile = true) const;
  std::string to_prometheus() const;
  /// Parses to_json output; returns false (out untouched) on malformed or
  /// schema-mismatched input.
  static bool parse_json(std::string_view text, StatsDump& out);
};

/// One differing stat between two dumps.
struct StatsDiffEntry {
  std::string name;
  bool only_in_a = false;
  bool only_in_b = false;
  double a = 0.0;
  double b = 0.0;
  double rel = 0.0;  // |a-b| / max(|a|,|b|); 0 when only on one side
};

/// Compares the non-volatile scalars of two dumps (include_volatile widens
/// to all scalars). A stat differs when its relative difference exceeds
/// `rel_tolerance` (exact comparison at 0.0). Entries are name-sorted.
std::vector<StatsDiffEntry> diff_stats(const StatsDump& a, const StatsDump& b,
                                       double rel_tolerance,
                                       bool include_volatile = false);

}  // namespace ptb

// Figure/table rendering helpers shared by the bench binaries: each paper
// figure becomes a printed table with the same rows/series, and — under
// --json — a machine-readable document that CI can diff mechanically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "sim/experiment.hpp"

namespace ptb {

/// Render the paper's paired figure (normalized energy % and AoPB %).
void print_energy_aopb(const FigureGrid& grid, const std::string& title);

/// Render a performance-slowdown table (Figure 13 style).
void print_slowdown(const FigureGrid& grid, const std::string& title);

/// Stable fingerprint of the simulated-machine configuration: FNV-1a over
/// every entry of the SimConfig field table (for_each_field in
/// common/config.hpp), in table order. Two runs with equal fingerprints and
/// equal bench inputs must produce equal numbers — the JSON exporter
/// embeds it so result diffs can tell "code changed" from "configuration
/// changed".
std::uint64_t config_fingerprint(const SimConfig& cfg);

/// Fingerprint of the simulated-machine parameters only: the
/// for_each_machine_field entries, i.e. the prefix of config_fingerprint
/// that stops before the for_each_technique_field entries. Two runs are
/// comparable under normalize() iff their machine fingerprints match: the
/// techniques may differ, the machine may not. Observe-only knobs that
/// cannot change results (audit_level, trace) are in neither.
std::uint64_t machine_fingerprint(const SimConfig& cfg);

/// RunResult::stats as JSON (src/stats exposition). Empty string when the
/// run carried no stats (RunOptions::stats was off). Deterministic dumps
/// (include_volatile = false) exclude the wall-clock self-profiling gauges
/// and are byte-identical across --jobs and across machines.
std::string stats_json(const RunResult& r, bool include_volatile = true);

/// RunResult::stats in Prometheus text exposition (always includes the
/// volatile gauges; scrapes are per-machine by nature). Empty string when
/// the run carried no stats.
std::string stats_prometheus(const RunResult& r);

/// One FigureGrid as a JSON object: row/technique labels plus the three
/// normalized metric matrices (row-major, grid[row][col] order).
std::string figure_grid_json(const FigureGrid& grid,
                             const std::string& title);

/// One Table as a JSON object: header plus rows of (preformatted) cells.
std::string table_json(const Table& t, const std::string& title);

/// Collects everything one bench binary produced — figure grids and ad-hoc
/// tables, in emission order — and renders one JSON document:
///
///   { "bench": ..., "schema_version": 1, "config_fingerprint": "...",
///     "seeds": N, "meta": {...}, "grids": [...], "tables": [...] }
///
/// Numbers inherit the bit-exact run results, so the document is
/// byte-identical at any --jobs value.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  void add_grid(const std::string& title, const FigureGrid& grid);
  void add_table(const std::string& title, const Table& t);

  /// Extra scalar metadata (e.g. "cores": "16"); values are emitted as
  /// JSON strings.
  void set_meta(const std::string& key, const std::string& value);

  /// Seed count the numbers aggregate over (default 1; the variance bench
  /// overrides it).
  void set_seeds(std::uint32_t seeds) { seeds_ = seeds; }

  std::string to_json() const;

  /// Writes to_json() to `path`; returns false if the file is not
  /// writable.
  bool write(const std::string& path) const;

 private:
  std::string bench_name_;
  std::uint32_t seeds_ = 1;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> grids_;   // pre-rendered JSON objects
  std::vector<std::string> tables_;  // pre-rendered JSON objects
};

}  // namespace ptb

#include "sim/reporting.hpp"

#include "common/bytes.hpp"
#include "common/file.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "stats/dump.hpp"

namespace ptb {

namespace {

void print_metric(const FigureGrid& g, const std::string& title,
                  double Normalized::*field) {
  std::vector<std::string> header{"benchmark"};
  for (const auto& t : g.technique_labels) header.push_back(t);
  Table tbl(header);
  for (std::size_t r = 0; r < g.grid.size(); ++r) {
    const std::size_t row = tbl.add_row();
    tbl.set(row, 0, g.row_labels[r]);
    for (std::size_t c = 0; c < g.grid[r].size(); ++c) {
      tbl.set(row, c + 1, g.grid[r][c].*field, 2);
    }
  }
  tbl.print(title);
}

std::string metric_matrix_json(const FigureGrid& g,
                               double Normalized::*field) {
  std::string out = "[";
  for (std::size_t r = 0; r < g.grid.size(); ++r) {
    if (r) out += ",";
    out += "[";
    for (std::size_t c = 0; c < g.grid[r].size(); ++c) {
      if (c) out += ",";
      out += format_g17(g.grid[r][c].*field);
    }
    out += "]";
  }
  out += "]";
  return out;
}

std::string string_array_json(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    // += chain rather than operator+: GCC 12 -O3 emits a spurious
    // -Wrestrict for `"lit" + std::string(...)` (GCC PR 105329), which
    // the PTB_WERROR=ON release build promotes to an error.
    out += '"';
    out += json::escape(v[i]);
    out += '"';
  }
  out += "]";
  return out;
}

// Mixes each visited table field into the FNV stream, field by field (never
// struct-at-once: padding bytes are indeterminate).
struct FnvMixer {
  std::uint64_t& h;

  template <class T>
  void operator()(const char*, const T& v) const {
    fnv_mix_value(h, v);
  }
  void operator()(const char*, bool v, MixedOnlyWhenSet) const {
    if (v) fnv_mix_value(h, v);
  }
};

}  // namespace

void print_energy_aopb(const FigureGrid& grid, const std::string& title) {
  print_metric(grid, title + " — Normalized Energy (%)",
               &Normalized::energy_pct);
  print_metric(grid, title + " — Normalized AoPB (%)", &Normalized::aopb_pct);
}

void print_slowdown(const FigureGrid& grid, const std::string& title) {
  print_metric(grid, title + " — Performance Slowdown (%)",
               &Normalized::slowdown_pct);
}

std::uint64_t machine_fingerprint(const SimConfig& cfg) {
  std::uint64_t h = kFnvBasis;
  for_each_machine_field(cfg, FnvMixer{h});
  return h;
}

std::uint64_t config_fingerprint(const SimConfig& cfg) {
  // Continues the machine stream, so machine_fingerprint is exactly the
  // prefix of config_fingerprint that stops before the technique fields.
  std::uint64_t h = machine_fingerprint(cfg);
  for_each_technique_field(cfg, FnvMixer{h});
  return h;
}

std::string stats_json(const RunResult& r, bool include_volatile) {
  return r.stats ? r.stats->to_json(include_volatile) : std::string();
}

std::string stats_prometheus(const RunResult& r) {
  return r.stats ? r.stats->to_prometheus() : std::string();
}

std::string figure_grid_json(const FigureGrid& grid,
                             const std::string& title) {
  std::string out = "{";
  out += "\"title\":\"" + json::escape(title) + "\",";
  out += "\"row_labels\":" + string_array_json(grid.row_labels) + ",";
  out += "\"technique_labels\":" + string_array_json(grid.technique_labels) +
         ",";
  out += "\"energy_pct\":" + metric_matrix_json(grid, &Normalized::energy_pct) +
         ",";
  out += "\"aopb_pct\":" + metric_matrix_json(grid, &Normalized::aopb_pct) +
         ",";
  out += "\"slowdown_pct\":" +
         metric_matrix_json(grid, &Normalized::slowdown_pct);
  out += "}";
  return out;
}

std::string table_json(const Table& t, const std::string& title) {
  std::string out = "{";
  out += "\"title\":\"" + json::escape(title) + "\",";
  std::vector<std::string> header;
  for (std::size_t c = 0; c < t.cols(); ++c) header.push_back(t.header(c));
  out += "\"header\":" + string_array_json(header) + ",";
  out += "\"rows\":[";
  for (std::size_t r = 0; r < t.rows(); ++r) {
    if (r) out += ",";
    std::vector<std::string> cells;
    for (std::size_t c = 0; c < t.cols(); ++c) cells.push_back(t.cell(r, c));
    out += string_array_json(cells);
  }
  out += "]}";
  return out;
}

BenchReport::BenchReport(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchReport::add_grid(const std::string& title, const FigureGrid& grid) {
  grids_.push_back(figure_grid_json(grid, title));
}

void BenchReport::add_table(const std::string& title, const Table& t) {
  tables_.push_back(table_json(t, title));
}

void BenchReport::set_meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

std::string BenchReport::to_json() const {
  std::string out = "{";
  out += "\"bench\":\"" + json::escape(bench_name_) + "\",";
  out += "\"schema_version\":1,";
  out += "\"config_fingerprint\":\"" + hex16(config_fingerprint(SimConfig{})) +
         "\",";
  out += "\"seeds\":" + std::to_string(seeds_) + ",";
  out += "\"meta\":{";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i) out += ",";
    out += '"';  // += chain: see string_array_json (GCC PR 105329)
    out += json::escape(meta_[i].first);
    out += "\":\"";
    out += json::escape(meta_[i].second);
    out += '"';
  }
  out += "},";
  out += "\"grids\":[";
  for (std::size_t i = 0; i < grids_.size(); ++i) {
    if (i) out += ",";
    out += grids_[i];
  }
  out += "],\"tables\":[";
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (i) out += ",";
    out += tables_[i];
  }
  out += "]}\n";
  return out;
}

bool BenchReport::write(const std::string& path) const {
  return write_file(path, to_json());
}

}  // namespace ptb

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

// Observe-only knobs that can never change a result stay out of the
// fingerprint so turning them on/off compares against existing results:
// audit_level (aborts or is silent) and trace.* (recorder sizing). ptb-lint's
// fingerprint checker holds this list exactly equal to the set of unhashed
// SimConfig fields — extending SimConfig without deciding fingerprint
// status fails the lint.
// ptb-lint: fingerprint-exclude(audit_level, trace)
std::uint64_t machine_fingerprint(const SimConfig& cfg) {
  std::uint64_t h = kFnvBasis;
  // Field-by-field (never struct-at-once: padding bytes are
  // indeterminate). Every field that can change a result participates;
  // the exclusion list above names what is deliberately absent.
  fnv_mix_value(h, cfg.num_cores);
  fnv_mix_value(h, cfg.core.rob_entries);
  fnv_mix_value(h, cfg.core.lsq_entries);
  fnv_mix_value(h, cfg.core.fetch_width);
  fnv_mix_value(h, cfg.core.issue_width);
  fnv_mix_value(h, cfg.core.commit_width);
  fnv_mix_value(h, cfg.core.pipeline_stages);
  fnv_mix_value(h, cfg.core.int_alu);
  fnv_mix_value(h, cfg.core.int_mult);
  fnv_mix_value(h, cfg.core.fp_alu);
  fnv_mix_value(h, cfg.core.fp_mult);
  fnv_mix_value(h, cfg.core.l1d_ports);
  fnv_mix_value(h, cfg.core.bp_history_bits);
  fnv_mix_value(h, cfg.core.bp_table_bytes);
  for (const CacheConfig* c : {&cfg.l1i, &cfg.l1d}) {
    fnv_mix_value(h, c->size_bytes);
    fnv_mix_value(h, c->assoc);
    fnv_mix_value(h, c->line_bytes);
    fnv_mix_value(h, c->hit_latency);
    fnv_mix_value(h, c->mshrs);
  }
  fnv_mix_value(h, cfg.l2.size_bytes_per_core);
  fnv_mix_value(h, cfg.l2.assoc);
  fnv_mix_value(h, cfg.l2.line_bytes);
  fnv_mix_value(h, cfg.l2.hit_latency);
  fnv_mix_value(h, cfg.l2.protocol);
  fnv_mix_value(h, cfg.noc.link_latency);
  fnv_mix_value(h, cfg.noc.flit_bytes);
  fnv_mix_value(h, cfg.noc.link_flits_per_cycle);
  fnv_mix_value(h, cfg.noc.ctrl_msg_bytes);
  fnv_mix_value(h, cfg.noc.data_msg_bytes);
  fnv_mix_value(h, cfg.mem.dram_latency);
  fnv_mix_value(h, cfg.mem.banked);
  fnv_mix_value(h, cfg.mem.channels);
  fnv_mix_value(h, cfg.mem.banks_per_channel);
  fnv_mix_value(h, cfg.mem.row_bytes);
  fnv_mix_value(h, cfg.mem.t_pre);
  fnv_mix_value(h, cfg.mem.t_act);
  fnv_mix_value(h, cfg.mem.t_cas);
  fnv_mix_value(h, cfg.mem.t_bus);
  fnv_mix_value(h, cfg.power.residency_token);
  fnv_mix_value(h, cfg.power.peak_fetch_frac);
  fnv_mix_value(h, cfg.power.peak_rob_frac);
  fnv_mix_value(h, cfg.power.base_int_alu);
  fnv_mix_value(h, cfg.power.base_int_mult);
  fnv_mix_value(h, cfg.power.base_fp_alu);
  fnv_mix_value(h, cfg.power.base_fp_mult);
  fnv_mix_value(h, cfg.power.base_load);
  fnv_mix_value(h, cfg.power.base_store);
  fnv_mix_value(h, cfg.power.base_branch);
  fnv_mix_value(h, cfg.power.base_atomic);
  fnv_mix_value(h, cfg.power.base_nop);
  fnv_mix_value(h, cfg.power.base_jitter);
  fnv_mix_value(h, cfg.power.kmeans_groups);
  fnv_mix_value(h, cfg.power.ptht_entries);
  fnv_mix_value(h, cfg.power.leakage_per_core);
  fnv_mix_value(h, cfg.power.clock_gated_dynamic);
  fnv_mix_value(h, cfg.power.uncore_per_core);
  fnv_mix_value(h, cfg.power.ptht_overhead_frac);
  fnv_mix_value(h, cfg.power.ptb_wire_overhead_frac);
  fnv_mix_value(h, cfg.power.vdd_nominal);
  fnv_mix_value(h, cfg.power.freq_nominal_ghz);
  fnv_mix_value(h, cfg.thermal.ambient_c);
  fnv_mix_value(h, cfg.thermal.r_thermal);
  fnv_mix_value(h, cfg.thermal.tau_cycles);
  fnv_mix_value(h, cfg.dvfs.window_cycles);
  fnv_mix_value(h, cfg.dvfs.up_hysteresis);
  fnv_mix_value(h, cfg.dvfs.mv_per_cycle);
  return h;
}

std::uint64_t config_fingerprint(const SimConfig& cfg) {
  // Continue the FNV stream from the machine prefix with the technique
  // knobs, so config_fingerprint stays byte-identical to the pre-split
  // value (results/*.json embed it) while machine_fingerprint is exactly
  // its machine-only prefix.
  std::uint64_t h = machine_fingerprint(cfg);
  fnv_mix_value(h, cfg.ptb.enabled);
  fnv_mix_value(h, cfg.ptb.policy);
  fnv_mix_value(h, cfg.ptb.wire_latency_override);
  fnv_mix_value(h, cfg.ptb.token_wire_bits);
  fnv_mix_value(h, cfg.ptb.relax_threshold);
  fnv_mix_value(h, cfg.ptb.dynamic_uses_ground_truth);
  fnv_mix_value(h, cfg.ptb.gate_spinners);
  fnv_mix_value(h, cfg.ptb.spin_gate_period);
  fnv_mix_value(h, cfg.ptb.cluster_size);
  // Mixed only when set so every pre-existing config keeps its embedded
  // fingerprint (results/*.json) while the non-default mode still gets a
  // distinct one.
  if (cfg.ptb.toall_redistribute) {
    fnv_mix_value(h, cfg.ptb.toall_redistribute);
  }
  fnv_mix_value(h, cfg.technique);
  fnv_mix_value(h, cfg.budget_fraction);
  fnv_mix_value(h, cfg.seed);
  fnv_mix_value(h, cfg.max_cycles);
  fnv_mix_value(h, cfg.functional_warmup);
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

#include "serve/config_json.hpp"

#include <cstddef>

#include "common/format.hpp"
#include "workloads/suite.hpp"

namespace ptb::serve {

namespace {

bool as_f64(const json::Value& v, double& dst) {
  if (!v.is_number()) return false;
  dst = v.as_double();
  return true;
}

bool as_b(const json::Value& v, bool& dst) {
  if (!v.is_bool()) return false;
  dst = v.as_bool();
  return true;
}

bool as_u64v(const json::Value& v, std::uint64_t& dst) {
  return v.as_u64(dst);
}

bool bad(std::string& err, const std::string& section, const std::string& key,
         const char* why) {
  // += chain: see reporting.cpp string_array_json (GCC PR 105329).
  err = section;
  if (!key.empty()) {
    err += '.';
    err += key;
  }
  err += ": ";
  err += why;
  return false;
}

bool require_object(const json::Value& v, const std::string& section,
                    std::string& err) {
  if (v.is_object()) return true;
  return bad(err, section, "", "expected an object");
}

bool apply_core(const json::Value& o, CoreConfig& c, std::string& err) {
  if (!require_object(o, "core", err)) return false;
  for (const auto& [k, v] : o.members()) {
    bool ok;
    if (k == "rob_entries") ok = v.as_u32(c.rob_entries);
    else if (k == "lsq_entries") ok = v.as_u32(c.lsq_entries);
    else if (k == "fetch_width") ok = v.as_u32(c.fetch_width);
    else if (k == "issue_width") ok = v.as_u32(c.issue_width);
    else if (k == "commit_width") ok = v.as_u32(c.commit_width);
    else if (k == "pipeline_stages") ok = v.as_u32(c.pipeline_stages);
    else if (k == "int_alu") ok = v.as_u32(c.int_alu);
    else if (k == "int_mult") ok = v.as_u32(c.int_mult);
    else if (k == "fp_alu") ok = v.as_u32(c.fp_alu);
    else if (k == "fp_mult") ok = v.as_u32(c.fp_mult);
    else if (k == "l1d_ports") ok = v.as_u32(c.l1d_ports);
    else if (k == "bp_history_bits") ok = v.as_u32(c.bp_history_bits);
    else if (k == "bp_table_bytes") ok = v.as_u32(c.bp_table_bytes);
    else return bad(err, "core", k, "unknown key");
    if (!ok) return bad(err, "core", k, "bad value");
  }
  return true;
}

bool apply_cache(const json::Value& o, const std::string& section,
                 CacheConfig& c, std::string& err) {
  if (!require_object(o, section, err)) return false;
  for (const auto& [k, v] : o.members()) {
    bool ok;
    if (k == "size_bytes") ok = v.as_u32(c.size_bytes);
    else if (k == "assoc") ok = v.as_u32(c.assoc);
    else if (k == "line_bytes") ok = v.as_u32(c.line_bytes);
    else if (k == "hit_latency") ok = v.as_u32(c.hit_latency);
    else if (k == "mshrs") ok = v.as_u32(c.mshrs);
    else return bad(err, section, k, "unknown key");
    if (!ok) return bad(err, section, k, "bad value");
  }
  return true;
}

bool apply_l2(const json::Value& o, L2Config& c, std::string& err) {
  if (!require_object(o, "l2", err)) return false;
  for (const auto& [k, v] : o.members()) {
    bool ok;
    if (k == "size_bytes_per_core") ok = v.as_u32(c.size_bytes_per_core);
    else if (k == "assoc") ok = v.as_u32(c.assoc);
    else if (k == "line_bytes") ok = v.as_u32(c.line_bytes);
    else if (k == "hit_latency") ok = v.as_u32(c.hit_latency);
    else if (k == "protocol")
      ok = v.is_string() && parse_coherence(v.as_string(), c.protocol);
    else return bad(err, "l2", k, "unknown key");
    if (!ok) return bad(err, "l2", k, "bad value");
  }
  return true;
}

bool apply_noc(const json::Value& o, NocConfig& c, std::string& err) {
  if (!require_object(o, "noc", err)) return false;
  for (const auto& [k, v] : o.members()) {
    bool ok;
    if (k == "link_latency") ok = v.as_u32(c.link_latency);
    else if (k == "flit_bytes") ok = v.as_u32(c.flit_bytes);
    else if (k == "link_flits_per_cycle")
      ok = v.as_u32(c.link_flits_per_cycle);
    else if (k == "ctrl_msg_bytes") ok = v.as_u32(c.ctrl_msg_bytes);
    else if (k == "data_msg_bytes") ok = v.as_u32(c.data_msg_bytes);
    else return bad(err, "noc", k, "unknown key");
    if (!ok) return bad(err, "noc", k, "bad value");
  }
  return true;
}

bool apply_mem(const json::Value& o, MemConfig& c, std::string& err) {
  if (!require_object(o, "mem", err)) return false;
  for (const auto& [k, v] : o.members()) {
    bool ok;
    if (k == "dram_latency") ok = v.as_u32(c.dram_latency);
    else if (k == "banked") ok = as_b(v, c.banked);
    else if (k == "channels") ok = v.as_u32(c.channels);
    else if (k == "banks_per_channel") ok = v.as_u32(c.banks_per_channel);
    else if (k == "row_bytes") ok = v.as_u32(c.row_bytes);
    else if (k == "t_pre") ok = v.as_u32(c.t_pre);
    else if (k == "t_act") ok = v.as_u32(c.t_act);
    else if (k == "t_cas") ok = v.as_u32(c.t_cas);
    else if (k == "t_bus") ok = v.as_u32(c.t_bus);
    else return bad(err, "mem", k, "unknown key");
    if (!ok) return bad(err, "mem", k, "bad value");
  }
  return true;
}

bool apply_power(const json::Value& o, PowerConfig& c, std::string& err) {
  if (!require_object(o, "power", err)) return false;
  for (const auto& [k, v] : o.members()) {
    bool ok;
    if (k == "residency_token") ok = as_f64(v, c.residency_token);
    else if (k == "peak_fetch_frac") ok = as_f64(v, c.peak_fetch_frac);
    else if (k == "peak_rob_frac") ok = as_f64(v, c.peak_rob_frac);
    else if (k == "base_int_alu") ok = as_f64(v, c.base_int_alu);
    else if (k == "base_int_mult") ok = as_f64(v, c.base_int_mult);
    else if (k == "base_fp_alu") ok = as_f64(v, c.base_fp_alu);
    else if (k == "base_fp_mult") ok = as_f64(v, c.base_fp_mult);
    else if (k == "base_load") ok = as_f64(v, c.base_load);
    else if (k == "base_store") ok = as_f64(v, c.base_store);
    else if (k == "base_branch") ok = as_f64(v, c.base_branch);
    else if (k == "base_atomic") ok = as_f64(v, c.base_atomic);
    else if (k == "base_nop") ok = as_f64(v, c.base_nop);
    else if (k == "base_jitter") ok = as_f64(v, c.base_jitter);
    else if (k == "kmeans_groups") ok = v.as_u32(c.kmeans_groups);
    else if (k == "ptht_entries") ok = v.as_u32(c.ptht_entries);
    else if (k == "leakage_per_core") ok = as_f64(v, c.leakage_per_core);
    else if (k == "clock_gated_dynamic")
      ok = as_f64(v, c.clock_gated_dynamic);
    else if (k == "uncore_per_core") ok = as_f64(v, c.uncore_per_core);
    else if (k == "ptht_overhead_frac") ok = as_f64(v, c.ptht_overhead_frac);
    else if (k == "ptb_wire_overhead_frac")
      ok = as_f64(v, c.ptb_wire_overhead_frac);
    else if (k == "vdd_nominal") ok = as_f64(v, c.vdd_nominal);
    else if (k == "freq_nominal_ghz") ok = as_f64(v, c.freq_nominal_ghz);
    else return bad(err, "power", k, "unknown key");
    if (!ok) return bad(err, "power", k, "bad value");
  }
  return true;
}

bool apply_thermal(const json::Value& o, ThermalConfig& c, std::string& err) {
  if (!require_object(o, "thermal", err)) return false;
  for (const auto& [k, v] : o.members()) {
    bool ok;
    if (k == "ambient_c") ok = as_f64(v, c.ambient_c);
    else if (k == "r_thermal") ok = as_f64(v, c.r_thermal);
    else if (k == "tau_cycles") ok = as_f64(v, c.tau_cycles);
    else return bad(err, "thermal", k, "unknown key");
    if (!ok) return bad(err, "thermal", k, "bad value");
  }
  return true;
}

bool apply_dvfs(const json::Value& o, DvfsConfig& c, std::string& err) {
  if (!require_object(o, "dvfs", err)) return false;
  for (const auto& [k, v] : o.members()) {
    bool ok;
    if (k == "window_cycles") ok = v.as_u32(c.window_cycles);
    else if (k == "up_hysteresis") ok = as_f64(v, c.up_hysteresis);
    else if (k == "mv_per_cycle") ok = as_f64(v, c.mv_per_cycle);
    else return bad(err, "dvfs", k, "unknown key");
    if (!ok) return bad(err, "dvfs", k, "bad value");
  }
  return true;
}

bool apply_ptb(const json::Value& o, PtbConfig& c, std::string& err) {
  if (!require_object(o, "ptb", err)) return false;
  for (const auto& [k, v] : o.members()) {
    bool ok;
    if (k == "enabled") ok = as_b(v, c.enabled);
    else if (k == "policy")
      ok = v.is_string() && parse_ptb_policy(v.as_string(), c.policy);
    else if (k == "wire_latency_override")
      ok = v.as_u32(c.wire_latency_override);
    else if (k == "token_wire_bits") ok = v.as_u32(c.token_wire_bits);
    else if (k == "relax_threshold") ok = as_f64(v, c.relax_threshold);
    else if (k == "dynamic_uses_ground_truth")
      ok = as_b(v, c.dynamic_uses_ground_truth);
    else if (k == "toall_redistribute") ok = as_b(v, c.toall_redistribute);
    else if (k == "gate_spinners") ok = as_b(v, c.gate_spinners);
    else if (k == "spin_gate_period") ok = v.as_u32(c.spin_gate_period);
    else if (k == "cluster_size") ok = v.as_u32(c.cluster_size);
    else return bad(err, "ptb", k, "unknown key");
    if (!ok) return bad(err, "ptb", k, "bad value");
  }
  return true;
}

void emit_kv_u32(std::string& out, const char* k, std::uint32_t v,
                 bool comma = true) {
  out += '"';
  out += k;
  out += "\":";
  out += std::to_string(v);
  if (comma) out += ',';
}

void emit_kv_f64(std::string& out, const char* k, double v,
                 bool comma = true) {
  out += '"';
  out += k;
  out += "\":";
  out += format_g17(v);
  if (comma) out += ',';
}

void emit_kv_bool(std::string& out, const char* k, bool v,
                  bool comma = true) {
  out += '"';
  out += k;
  out += "\":";
  out += v ? "true" : "false";
  if (comma) out += ',';
}

void emit_kv_str(std::string& out, const char* k, const char* v,
                 bool comma = true) {
  out += '"';
  out += k;
  out += "\":\"";
  out += v;
  out += '"';
  if (comma) out += ',';
}

}  // namespace

const char* technique_kind_name(TechniqueKind k) {
  switch (k) {
    case TechniqueKind::kNone: return "none";
    case TechniqueKind::kDvfs: return "dvfs";
    case TechniqueKind::kDfs: return "dfs";
    case TechniqueKind::kTwoLevel: return "two_level";
    case TechniqueKind::kThriftyBarrier: return "thrifty_barrier";
    case TechniqueKind::kMeetingPoints: return "meeting_points";
  }
  return "?";
}

bool parse_technique_kind(const std::string& s, TechniqueKind& out) {
  if (s == "none") out = TechniqueKind::kNone;
  else if (s == "dvfs") out = TechniqueKind::kDvfs;
  else if (s == "dfs") out = TechniqueKind::kDfs;
  else if (s == "two_level") out = TechniqueKind::kTwoLevel;
  else if (s == "thrifty_barrier") out = TechniqueKind::kThriftyBarrier;
  else if (s == "meeting_points") out = TechniqueKind::kMeetingPoints;
  else return false;
  return true;
}

const char* ptb_policy_name(PtbPolicy p) {
  switch (p) {
    case PtbPolicy::kToAll: return "to_all";
    case PtbPolicy::kToOne: return "to_one";
    case PtbPolicy::kDynamic: return "dynamic";
  }
  return "?";
}

bool parse_ptb_policy(const std::string& s, PtbPolicy& out) {
  if (s == "to_all") out = PtbPolicy::kToAll;
  else if (s == "to_one") out = PtbPolicy::kToOne;
  else if (s == "dynamic") out = PtbPolicy::kDynamic;
  else return false;
  return true;
}

const char* coherence_name(CoherenceProtocol p) {
  switch (p) {
    case CoherenceProtocol::kMoesi: return "moesi";
    case CoherenceProtocol::kMesi: return "mesi";
  }
  return "?";
}

bool parse_coherence(const std::string& s, CoherenceProtocol& out) {
  if (s == "moesi") out = CoherenceProtocol::kMoesi;
  else if (s == "mesi") out = CoherenceProtocol::kMesi;
  else return false;
  return true;
}

bool apply_sim_config_json(const json::Value& doc, SimConfig& cfg,
                           std::string& err) {
  if (!doc.is_object()) {
    err = "config: expected an object";
    return false;
  }
  for (const auto& [k, v] : doc.members()) {
    if (k == "core") {
      if (!apply_core(v, cfg.core, err)) return false;
    } else if (k == "l1i") {
      if (!apply_cache(v, "l1i", cfg.l1i, err)) return false;
    } else if (k == "l1d") {
      if (!apply_cache(v, "l1d", cfg.l1d, err)) return false;
    } else if (k == "l2") {
      if (!apply_l2(v, cfg.l2, err)) return false;
    } else if (k == "noc") {
      if (!apply_noc(v, cfg.noc, err)) return false;
    } else if (k == "mem") {
      if (!apply_mem(v, cfg.mem, err)) return false;
    } else if (k == "power") {
      if (!apply_power(v, cfg.power, err)) return false;
    } else if (k == "thermal") {
      if (!apply_thermal(v, cfg.thermal, err)) return false;
    } else if (k == "dvfs") {
      if (!apply_dvfs(v, cfg.dvfs, err)) return false;
    } else if (k == "ptb") {
      if (!apply_ptb(v, cfg.ptb, err)) return false;
    } else if (k == "num_cores") {
      std::uint32_t cores = 0;
      if (!v.as_u32(cores) || cores == 0)
        return bad(err, "config", k, "expected a positive integer");
      cfg.num_cores = cores;
    } else if (k == "technique") {
      if (!v.is_string() ||
          !parse_technique_kind(v.as_string(), cfg.technique))
        return bad(err, "config", k,
                   "expected one of none/dvfs/dfs/two_level/"
                   "thrifty_barrier/meeting_points");
    } else if (k == "budget_fraction") {
      double f = 0.0;
      if (!as_f64(v, f) || !(f > 0.0) || f > 1.0)
        return bad(err, "config", k, "expected a number in (0, 1]");
      cfg.budget_fraction = f;
    } else if (k == "seed") {
      if (!as_u64v(v, cfg.seed))
        return bad(err, "config", k, "expected an unsigned integer");
    } else if (k == "max_cycles") {
      std::uint64_t mc = 0;
      if (!as_u64v(v, mc) || mc == 0)
        return bad(err, "config", k, "expected a positive integer");
      cfg.max_cycles = mc;
    } else if (k == "functional_warmup") {
      if (!as_b(v, cfg.functional_warmup))
        return bad(err, "config", k, "expected a boolean");
    } else if (k == "audit_level" || k == "trace") {
      return bad(err, "config", k,
                 "observe-only knob, not addressable over the wire");
    } else {
      return bad(err, "config", k, "unknown key");
    }
  }
  return true;
}

bool sim_config_from_json(const std::string& text, SimConfig& out,
                          std::string& err) {
  json::Value doc;
  if (!json::parse(text, doc, err)) return false;
  SimConfig cfg;
  if (!apply_sim_config_json(doc, cfg, err)) return false;
  out = cfg;
  return true;
}

std::string sim_config_to_json(const SimConfig& cfg) {
  std::string out = "{";
  emit_kv_u32(out, "num_cores", cfg.num_cores);

  out += "\"core\":{";
  emit_kv_u32(out, "rob_entries", cfg.core.rob_entries);
  emit_kv_u32(out, "lsq_entries", cfg.core.lsq_entries);
  emit_kv_u32(out, "fetch_width", cfg.core.fetch_width);
  emit_kv_u32(out, "issue_width", cfg.core.issue_width);
  emit_kv_u32(out, "commit_width", cfg.core.commit_width);
  emit_kv_u32(out, "pipeline_stages", cfg.core.pipeline_stages);
  emit_kv_u32(out, "int_alu", cfg.core.int_alu);
  emit_kv_u32(out, "int_mult", cfg.core.int_mult);
  emit_kv_u32(out, "fp_alu", cfg.core.fp_alu);
  emit_kv_u32(out, "fp_mult", cfg.core.fp_mult);
  emit_kv_u32(out, "l1d_ports", cfg.core.l1d_ports);
  emit_kv_u32(out, "bp_history_bits", cfg.core.bp_history_bits);
  emit_kv_u32(out, "bp_table_bytes", cfg.core.bp_table_bytes,
              /*comma=*/false);
  out += "},";

  for (const auto& [name, c] :
       {std::pair<const char*, const CacheConfig*>{"l1i", &cfg.l1i},
        std::pair<const char*, const CacheConfig*>{"l1d", &cfg.l1d}}) {
    out += '"';
    out += name;
    out += "\":{";
    emit_kv_u32(out, "size_bytes", c->size_bytes);
    emit_kv_u32(out, "assoc", c->assoc);
    emit_kv_u32(out, "line_bytes", c->line_bytes);
    emit_kv_u32(out, "hit_latency", c->hit_latency);
    emit_kv_u32(out, "mshrs", c->mshrs, /*comma=*/false);
    out += "},";
  }

  out += "\"l2\":{";
  emit_kv_u32(out, "size_bytes_per_core", cfg.l2.size_bytes_per_core);
  emit_kv_u32(out, "assoc", cfg.l2.assoc);
  emit_kv_u32(out, "line_bytes", cfg.l2.line_bytes);
  emit_kv_u32(out, "hit_latency", cfg.l2.hit_latency);
  emit_kv_str(out, "protocol", coherence_name(cfg.l2.protocol),
              /*comma=*/false);
  out += "},";

  out += "\"noc\":{";
  emit_kv_u32(out, "link_latency", cfg.noc.link_latency);
  emit_kv_u32(out, "flit_bytes", cfg.noc.flit_bytes);
  emit_kv_u32(out, "link_flits_per_cycle", cfg.noc.link_flits_per_cycle);
  emit_kv_u32(out, "ctrl_msg_bytes", cfg.noc.ctrl_msg_bytes);
  emit_kv_u32(out, "data_msg_bytes", cfg.noc.data_msg_bytes,
              /*comma=*/false);
  out += "},";

  out += "\"mem\":{";
  emit_kv_u32(out, "dram_latency", cfg.mem.dram_latency);
  emit_kv_bool(out, "banked", cfg.mem.banked);
  emit_kv_u32(out, "channels", cfg.mem.channels);
  emit_kv_u32(out, "banks_per_channel", cfg.mem.banks_per_channel);
  emit_kv_u32(out, "row_bytes", cfg.mem.row_bytes);
  emit_kv_u32(out, "t_pre", cfg.mem.t_pre);
  emit_kv_u32(out, "t_act", cfg.mem.t_act);
  emit_kv_u32(out, "t_cas", cfg.mem.t_cas);
  emit_kv_u32(out, "t_bus", cfg.mem.t_bus, /*comma=*/false);
  out += "},";

  out += "\"power\":{";
  emit_kv_f64(out, "residency_token", cfg.power.residency_token);
  emit_kv_f64(out, "peak_fetch_frac", cfg.power.peak_fetch_frac);
  emit_kv_f64(out, "peak_rob_frac", cfg.power.peak_rob_frac);
  emit_kv_f64(out, "base_int_alu", cfg.power.base_int_alu);
  emit_kv_f64(out, "base_int_mult", cfg.power.base_int_mult);
  emit_kv_f64(out, "base_fp_alu", cfg.power.base_fp_alu);
  emit_kv_f64(out, "base_fp_mult", cfg.power.base_fp_mult);
  emit_kv_f64(out, "base_load", cfg.power.base_load);
  emit_kv_f64(out, "base_store", cfg.power.base_store);
  emit_kv_f64(out, "base_branch", cfg.power.base_branch);
  emit_kv_f64(out, "base_atomic", cfg.power.base_atomic);
  emit_kv_f64(out, "base_nop", cfg.power.base_nop);
  emit_kv_f64(out, "base_jitter", cfg.power.base_jitter);
  emit_kv_u32(out, "kmeans_groups", cfg.power.kmeans_groups);
  emit_kv_u32(out, "ptht_entries", cfg.power.ptht_entries);
  emit_kv_f64(out, "leakage_per_core", cfg.power.leakage_per_core);
  emit_kv_f64(out, "clock_gated_dynamic", cfg.power.clock_gated_dynamic);
  emit_kv_f64(out, "uncore_per_core", cfg.power.uncore_per_core);
  emit_kv_f64(out, "ptht_overhead_frac", cfg.power.ptht_overhead_frac);
  emit_kv_f64(out, "ptb_wire_overhead_frac",
              cfg.power.ptb_wire_overhead_frac);
  emit_kv_f64(out, "vdd_nominal", cfg.power.vdd_nominal);
  emit_kv_f64(out, "freq_nominal_ghz", cfg.power.freq_nominal_ghz,
              /*comma=*/false);
  out += "},";

  out += "\"thermal\":{";
  emit_kv_f64(out, "ambient_c", cfg.thermal.ambient_c);
  emit_kv_f64(out, "r_thermal", cfg.thermal.r_thermal);
  emit_kv_f64(out, "tau_cycles", cfg.thermal.tau_cycles, /*comma=*/false);
  out += "},";

  out += "\"dvfs\":{";
  emit_kv_u32(out, "window_cycles", cfg.dvfs.window_cycles);
  emit_kv_f64(out, "up_hysteresis", cfg.dvfs.up_hysteresis);
  emit_kv_f64(out, "mv_per_cycle", cfg.dvfs.mv_per_cycle, /*comma=*/false);
  out += "},";

  out += "\"ptb\":{";
  emit_kv_bool(out, "enabled", cfg.ptb.enabled);
  emit_kv_str(out, "policy", ptb_policy_name(cfg.ptb.policy));
  emit_kv_u32(out, "wire_latency_override", cfg.ptb.wire_latency_override);
  emit_kv_u32(out, "token_wire_bits", cfg.ptb.token_wire_bits);
  emit_kv_f64(out, "relax_threshold", cfg.ptb.relax_threshold);
  emit_kv_bool(out, "dynamic_uses_ground_truth",
               cfg.ptb.dynamic_uses_ground_truth);
  emit_kv_bool(out, "toall_redistribute", cfg.ptb.toall_redistribute);
  emit_kv_bool(out, "gate_spinners", cfg.ptb.gate_spinners);
  emit_kv_u32(out, "spin_gate_period", cfg.ptb.spin_gate_period);
  emit_kv_u32(out, "cluster_size", cfg.ptb.cluster_size, /*comma=*/false);
  out += "},";

  emit_kv_str(out, "technique", technique_kind_name(cfg.technique));
  emit_kv_f64(out, "budget_fraction", cfg.budget_fraction);
  out += "\"seed\":" + std::to_string(cfg.seed) + ",";
  out += "\"max_cycles\":" + std::to_string(cfg.max_cycles) + ",";
  emit_kv_bool(out, "functional_warmup", cfg.functional_warmup,
               /*comma=*/false);
  out += "}";
  return out;
}

bool parse_run_request(const json::Value& doc, RunRequest& out,
                       std::string& err) {
  if (!doc.is_object()) {
    err = "request: expected an object";
    return false;
  }
  RunRequest req;
  bool have_benchmark = false;
  for (const auto& [k, v] : doc.members()) {
    if (k == "benchmark") {
      if (!v.is_string()) return bad(err, "request", k, "expected a string");
      req.benchmark = v.as_string();
      have_benchmark = true;
    } else if (k == "config") {
      if (!apply_sim_config_json(v, req.config, err)) return false;
    } else {
      return bad(err, "request", k, "unknown key");
    }
  }
  if (!have_benchmark) {
    err = "request: missing required key 'benchmark'";
    return false;
  }
  bool known = false;
  for (const std::string& name : full_benchmark_names()) {
    if (name == req.benchmark) {
      known = true;
      break;
    }
  }
  if (!known) {
    err = "request.benchmark: unknown benchmark '" + req.benchmark + "'";
    return false;
  }
  out = std::move(req);
  return true;
}

bool parse_sweep_request(const json::Value& doc,
                         std::vector<RunRequest>& out, std::string& err) {
  if (!doc.is_object()) {
    err = "sweep: expected an object";
    return false;
  }
  const json::Value* reqs = nullptr;
  for (const auto& [k, v] : doc.members()) {
    if (k == "requests") {
      reqs = &v;
    } else {
      return bad(err, "sweep", k, "unknown key");
    }
  }
  if (reqs == nullptr || !reqs->is_array() || reqs->array().empty()) {
    err = "sweep: 'requests' must be a non-empty array";
    return false;
  }
  std::vector<RunRequest> parsed;
  parsed.reserve(reqs->array().size());
  for (std::size_t i = 0; i < reqs->array().size(); ++i) {
    RunRequest r;
    if (!parse_run_request(reqs->array()[i], r, err)) {
      err = "requests[" + std::to_string(i) + "]: " + err;
      return false;
    }
    parsed.push_back(std::move(r));
  }
  out = std::move(parsed);
  return true;
}

}  // namespace ptb::serve

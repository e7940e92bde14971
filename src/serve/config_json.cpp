#include "serve/config_json.hpp"

#include <bit>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "common/format.hpp"
#include "workloads/suite.hpp"

namespace ptb::serve {

namespace {

bool bad(std::string& err, std::string_view section, std::string_view key,
         std::string_view why) {
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

// --- one overload per table field type -------------------------------------

bool read(const json::Value& v, std::uint32_t& dst) { return v.as_u32(dst); }
bool read(const json::Value& v, std::uint64_t& dst) { return v.as_u64(dst); }

bool read(const json::Value& v, double& dst) {
  if (!v.is_number()) return false;
  dst = v.as_double();
  return true;
}

bool read(const json::Value& v, bool& dst) {
  if (!v.is_bool()) return false;
  dst = v.as_bool();
  return true;
}

template <class E>
  requires std::is_enum_v<E>
bool read(const json::Value& v, E& dst) {
  return v.is_string() && parse_enum(v.as_string(), dst);
}

// The type error of a top-level key (keys inside a section say "bad
// value").
std::string expected(std::uint32_t) { return "expected an unsigned integer"; }
std::string expected(std::uint64_t) { return "expected an unsigned integer"; }
std::string expected(double) { return "expected a number"; }
std::string expected(bool) { return "expected a boolean"; }

template <class E>
  requires std::is_enum_v<E>
std::string expected(E) {
  std::string out = "expected one of ";
  const char* sep = "";
  for (const char* name : enum_names(E{})) {
    out += sep;
    out += name;
    sep = "/";
  }
  return out;
}

void write(std::string& out, std::uint32_t v) { out += std::to_string(v); }
void write(std::string& out, std::uint64_t v) { out += std::to_string(v); }
void write(std::string& out, double v) { out += format_g17(v); }
void write(std::string& out, bool v) { out += v ? "true" : "false"; }

template <class E>
  requires std::is_enum_v<E>
void write(std::string& out, E v) {
  out += '"';
  out += enum_name(v);
  out += '"';
}

// Splits a table wire name into its section ("" at top level) and key.
std::pair<std::string_view, std::string_view> split_name(
    std::string_view name) {
  const std::size_t dot = name.find('.');
  if (dot == std::string_view::npos) return {{}, name};
  return {name.substr(0, dot), name.substr(dot + 1)};
}

bool is_section(const SimConfig& cfg, std::string_view key) {
  bool found = false;
  for_each_field(cfg, [&](std::string_view name, const auto&, auto...) {
    found = found || split_name(name).first == key;
  });
  return found;
}

// Applies one wire member `section.key` (`key` alone at top level).
bool apply_field(SimConfig& cfg, std::string_view section,
                 std::string_view key, const json::Value& v,
                 std::string& err) {
  bool found = false;
  std::string why;
  for_each_field(cfg, [&](std::string_view name, auto& dst, auto...) {
    if (found || split_name(name) != std::pair{section, key}) return;
    found = true;
    if (!read(v, dst)) why = section.empty() ? expected(dst) : "bad value";
  });
  const std::string_view where = section.empty() ? "config" : section;
  if (!found) return bad(err, where, key, "unknown key");
  if (!why.empty()) return bad(err, where, key, why);
  return true;
}

// Cache geometry as Cache's constructor asserts it (mem/cache.cpp).
bool valid_cache(std::string_view section, std::string_view size_key,
                 std::uint32_t size_bytes, std::uint32_t assoc,
                 std::uint32_t line_bytes, std::string& err) {
  if (!std::has_single_bit(line_bytes))
    return bad(err, section, "line_bytes", "expected a power of two");
  if (assoc == 0)
    return bad(err, section, "assoc", "expected a positive integer");
  const std::uint32_t lines = size_bytes / line_bytes;
  if (lines % assoc != 0 || !std::has_single_bit(lines / assoc))
    return bad(err, section, size_key,
               "size / (assoc * line_bytes) must be a power-of-two set count");
  return true;
}

// Rejects every machine the simulator's constructors would abort on (or
// divide by zero in), so a bad request is a 400, never a dead daemon.
bool validate(const SimConfig& cfg, std::string& err) {
  if (cfg.num_cores == 0)
    return bad(err, "config", "num_cores", "expected a positive integer");
  if (cfg.num_cores > 32)  // the directory's sharer bitmask
    return bad(err, "config", "num_cores", "at most 32 cores are supported");
  if (!(cfg.budget_fraction > 0.0) || cfg.budget_fraction > 1.0)
    return bad(err, "config", "budget_fraction", "expected a number in (0, 1]");
  if (cfg.max_cycles == 0)
    return bad(err, "config", "max_cycles", "expected a positive integer");
  if (!std::has_single_bit(cfg.core.bp_table_bytes * 4u))
    return bad(err, "core", "bp_table_bytes",
               "4 * bp_table_bytes must be a power of two");
  if (!valid_cache("l1i", "size_bytes", cfg.l1i.size_bytes, cfg.l1i.assoc,
                   cfg.l1i.line_bytes, err) ||
      !valid_cache("l1d", "size_bytes", cfg.l1d.size_bytes, cfg.l1d.assoc,
                   cfg.l1d.line_bytes, err) ||
      !valid_cache("l2", "size_bytes_per_core", cfg.l2.size_bytes_per_core,
                   cfg.l2.assoc, cfg.l2.line_bytes, err)) {
    return false;
  }
  if (cfg.noc.flit_bytes == 0)
    return bad(err, "noc", "flit_bytes", "expected a positive integer");
  if (cfg.noc.link_flits_per_cycle == 0)
    return bad(err, "noc", "link_flits_per_cycle",
               "expected a positive integer");
  // The bank array exists even when the flat model is in use.
  if (cfg.mem.channels == 0)
    return bad(err, "mem", "channels", "expected a positive integer");
  if (cfg.mem.banks_per_channel == 0)
    return bad(err, "mem", "banks_per_channel", "expected a positive integer");
  if (cfg.mem.banked && cfg.mem.row_bytes < 64)
    return bad(err, "mem", "row_bytes", "a row holds at least one 64 B line");
  if (cfg.power.kmeans_groups == 0)
    return bad(err, "power", "kmeans_groups", "expected a positive integer");
  if (!std::has_single_bit(cfg.power.ptht_entries))
    return bad(err, "power", "ptht_entries", "expected a power of two");
  if (cfg.ptb.enabled &&
      (cfg.ptb.token_wire_bits == 0 || cfg.ptb.token_wire_bits > 16))
    return bad(err, "ptb", "token_wire_bits", "expected 1..16");
  if (cfg.ptb.gate_spinners && cfg.ptb.spin_gate_period == 0)
    return bad(err, "ptb", "spin_gate_period", "expected a positive integer");
  // Legal but huge: these size per-core tables, so one request body may
  // grow each to at most 16x its Table 1 default.
  const SimConfig t1;
  const struct {
    const char* section;
    const char* key;
    std::uint64_t value, table1;
  } caps[] = {
      {"core", "bp_table_bytes", cfg.core.bp_table_bytes,
       t1.core.bp_table_bytes},
      {"l1i", "size_bytes", cfg.l1i.size_bytes, t1.l1i.size_bytes},
      {"l1d", "size_bytes", cfg.l1d.size_bytes, t1.l1d.size_bytes},
      {"l2", "size_bytes_per_core", cfg.l2.size_bytes_per_core,
       t1.l2.size_bytes_per_core},
      {"power", "ptht_entries", cfg.power.ptht_entries, t1.power.ptht_entries},
  };
  for (const auto& c : caps) {
    if (c.value > 16 * c.table1)
      return bad(err, c.section, c.key,
                 "at most " + std::to_string(16 * c.table1) +
                     " (16x the Table 1 default)");
  }
  // The balancer's token ring has latency + 1 slots (u32 arithmetic).
  if (cfg.ptb.wire_latency_override > 1024)
    return bad(err, "ptb", "wire_latency_override", "at most 1024 cycles");
  return true;
}

}  // namespace

bool apply_sim_config_json(const json::Value& doc, SimConfig& cfg,
                           std::string& err) {
  if (!doc.is_object()) {
    err = "config: expected an object";
    return false;
  }
  for (const auto& [k, v] : doc.members()) {
    if (k == "audit_level" || k == "trace") {
      return bad(err, "config", k,
                 "observe-only knob, not addressable over the wire");
    }
    if (!is_section(cfg, k)) {
      if (!apply_field(cfg, {}, k, v, err)) return false;
      continue;
    }
    if (!v.is_object()) return bad(err, k, {}, "expected an object");
    for (const auto& [key, val] : v.members()) {
      if (!apply_field(cfg, k, key, val, err)) return false;
    }
  }
  return validate(cfg, err);
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
  std::string_view open;  // section whose object is open ("" = top level)
  bool first = true;      // no member yet in the innermost open object
  for_each_field(cfg, [&](std::string_view name, const auto& v, auto...) {
    const auto [section, key] = split_name(name);
    if (section != open) {
      if (!open.empty()) {
        out += '}';
        first = false;
      }
      open = section;
      if (!section.empty()) {
        if (!first) out += ',';
        out += '"';
        out += section;
        out += "\":{";
        first = true;
      }
    }
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    write(out, v);
  });
  if (!open.empty()) out += '}';
  out += '}';
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

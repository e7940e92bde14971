// Canonical SimConfig JSON codec — the request-body vocabulary of the
// ptb-serve daemon.
//
// A request carries *overrides*: parsing starts from a default-constructed
// SimConfig (the paper's Table 1 machine) and applies exactly the members
// present, strictly — an unknown key, a mistyped value, an out-of-domain
// enum string or a machine the simulator would abort on (bad cache
// geometry, more than 32 cores, ...) rejects the whole document with a
// positioned error, because a silently ignored typo ("num_core") would
// simulate the wrong machine and then *cache* it under the wrong-machine
// fingerprint, and an impossible machine would take the daemon down.
//
// The wire vocabulary is the SimConfig field table (for_each_field in
// common/config.hpp), the same list the fingerprints hash — so the codec
// covers every fingerprinted field by construction, and nothing else: the
// observe-only knobs (audit_level, trace.*) are deliberately not
// addressable over the wire — they cannot change a result, so a client
// setting them could only burn server CPU; requests naming them are
// rejected with an error saying so. Enum values travel as their
// enum_names() wire names.
//
// sim_config_to_json emits the canonical full document (every table field
// in table order, locale-pinned numbers): parse(to_json(cfg)) == cfg, and
// the emitted text is byte-stable for use in fingerprint-adjacent tooling.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"

namespace ptb::serve {

/// Applies the members of `doc` (a parsed JSON object) onto `cfg`.
/// Strict: unknown keys, wrong types, bad enum strings and machines the
/// simulator would abort on fail with `err` naming the offending key. On failure `cfg` may be partially updated —
/// parse into a scratch config.
bool apply_sim_config_json(const json::Value& doc, SimConfig& cfg,
                           std::string& err);

/// Parses a full request-body config: text -> JSON -> overrides on top of
/// a default SimConfig. `out` is only written on success.
bool sim_config_from_json(const std::string& text, SimConfig& out,
                          std::string& err);

/// Canonical full emission of every table field, in table order.
std::string sim_config_to_json(const SimConfig& cfg);

/// One simulation request: a suite benchmark plus config overrides.
struct RunRequest {
  std::string benchmark;
  SimConfig config;
};

/// Parses `{"benchmark":"fft","config":{...}}`. The benchmark name is
/// validated against the full suite (workloads/suite.hpp) — an unknown
/// name is a parse error here, never an abort in benchmark_by_name.
/// "config" may be absent (Table 1 defaults).
bool parse_run_request(const json::Value& doc, RunRequest& out,
                       std::string& err);

/// Parses a sweep body `{"requests":[{...},{...}]}` (at least one entry).
bool parse_sweep_request(const json::Value& doc,
                         std::vector<RunRequest>& out, std::string& err);

}  // namespace ptb::serve

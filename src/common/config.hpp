// Simulated-machine configuration. Defaults reproduce Table 1 of the paper:
//
//   32 nm, 3 GHz, 0.9 V, 128-entry ROB + 64-entry LSQ, 4-wide decode/issue,
//   6 IntAlu / 2 IntMult / 4 FpAlu / 4 FpMult, 14-stage pipeline,
//   64 KB 16-bit-history gshare, MOESI, 300-cycle memory,
//   64 KB 2-way 1-cycle L1I/L1D, 1 MB/core 4-way 12-cycle unified L2,
//   2D mesh, 4-cycle links, 4-byte flits, 1 flit/cycle links.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

#include "common/types.hpp"

namespace ptb {

struct CoreConfig {
  std::uint32_t rob_entries = 128;
  std::uint32_t lsq_entries = 64;
  std::uint32_t fetch_width = 4;   // "decode width" in Table 1
  std::uint32_t issue_width = 4;
  std::uint32_t commit_width = 4;
  std::uint32_t pipeline_stages = 14;  // front-end refill on flush
  std::uint32_t int_alu = 6;
  std::uint32_t int_mult = 2;
  std::uint32_t fp_alu = 4;
  std::uint32_t fp_mult = 4;
  std::uint32_t l1d_ports = 2;

  // Branch predictor: gshare, 64 KB of 2-bit counters, 16-bit history.
  std::uint32_t bp_history_bits = 16;
  std::uint32_t bp_table_bytes = 64 * 1024;
};

struct CacheConfig {
  std::uint32_t size_bytes = 64 * 1024;
  std::uint32_t assoc = 2;
  std::uint32_t line_bytes = 64;
  std::uint32_t hit_latency = 1;
  std::uint32_t mshrs = 16;
};

/// Coherence protocol variant. The paper's Table 1 uses MOESI (a dirty
/// owner keeps supplying readers from the O state); the MESI variant
/// writes dirty lines back to the L2 on the first read-share instead —
/// kept for the protocol ablation.
enum class CoherenceProtocol : std::uint8_t { kMoesi = 0, kMesi };

/// Wire names, indexed by enumerator value (see enum_name / parse_enum).
inline std::span<const char* const> enum_names(CoherenceProtocol) {
  static constexpr const char* kNames[] = {"moesi", "mesi"};
  return kNames;
}

struct L2Config {
  std::uint32_t size_bytes_per_core = 1024 * 1024;
  std::uint32_t assoc = 4;
  std::uint32_t line_bytes = 64;
  std::uint32_t hit_latency = 12;
  CoherenceProtocol protocol = CoherenceProtocol::kMoesi;
};

struct NocConfig {
  std::uint32_t link_latency = 4;   // cycles per hop
  std::uint32_t flit_bytes = 4;
  std::uint32_t link_flits_per_cycle = 1;
  std::uint32_t ctrl_msg_bytes = 8;   // request / ack message size
  std::uint32_t data_msg_bytes = 72;  // 64B line + header
};

struct MemConfig {
  std::uint32_t dram_latency = 300;  // cycles (flat model, Table 1)

  // Optional banked DRAM refinement (see mem/dram.hpp). Timings are in core
  // cycles at 3 GHz and calibrated so a row miss ~= the flat 300 cycles.
  bool banked = false;
  std::uint32_t channels = 2;
  std::uint32_t banks_per_channel = 8;
  std::uint32_t row_bytes = 4096;
  std::uint32_t t_pre = 80;   // precharge
  std::uint32_t t_act = 80;   // activate (row open)
  std::uint32_t t_cas = 80;   // column access
  std::uint32_t t_bus = 30;   // controller/bus hop each way
};

/// Power model constants. The absolute scale is arbitrary (results are
/// normalized); the *relative* structure follows the paper's accounting.
struct PowerConfig {
  // Energy of one instruction staying in the ROB for one cycle (the paper's
  // power-token unit, Section III.B). The variable residency component is
  // small relative to the base (execution) component, so memory-stalled
  // cores sit well below busily executing ones.
  double residency_token = 0.12;

  // Reference-peak calibration (see analytic_peak_core_power): sustainable
  // fraction of the fetch width and typical ROB occupancy fraction.
  double peak_fetch_frac = 0.58;
  double peak_rob_frac = 0.30;

  // Mean base tokens per instruction class (stand-in for the SPECint2000
  // profiling pass of the paper; see power/power_model.cpp). Expressed in
  // power-token units, i.e. multiples of one ROB-residency cycle: execution
  // (the base) dominates, residency is the smaller variable component, so a
  // memory-stalled core with a full ROB sits *below* a busily fetching one —
  // the unbalance PTB exploits (Section III.E.1).
  double base_int_alu = 24.0;
  double base_int_mult = 56.0;
  double base_fp_alu = 64.0;
  double base_fp_mult = 96.0;
  double base_load = 40.0;
  double base_store = 36.0;
  double base_branch = 20.0;
  double base_atomic = 48.0;
  double base_nop = 6.0;

  // Jitter applied per static instruction when synthesizing the profiling
  // population the k-means grouping runs over (fraction of the mean).
  double base_jitter = 0.15;

  std::uint32_t kmeans_groups = 8;    // paper: 8 groups -> <1% error
  std::uint32_t ptht_entries = 8192;  // paper: 8K-entry PTHT

  // Per-core overheads (tokens/cycle at nominal V/f).
  double leakage_per_core = 10.0;      // always paid
  double clock_gated_dynamic = 3.0;    // residual dynamic power when gated
  double uncore_per_core = 6.0;        // L2 bank + NoC share, always paid
  double ptht_overhead_frac = 0.01;    // PTHT power: +1% of core dynamic
  double ptb_wire_overhead_frac = 0.01;  // PTB wires: +1% (paper, XPower)

  // Voltage/frequency scaling reference.
  double vdd_nominal = 0.9;
  double freq_nominal_ghz = 3.0;
};

/// Thermal lumped-RC model (per core) used for the temperature-stability
/// extension experiment.
struct ThermalConfig {
  double ambient_c = 45.0;
  double r_thermal = 0.8;      // degC per (token/cycle) at steady state
  double tau_cycles = 20000;   // RC time constant in cycles
};

/// Runtime level of the invariant auditor (src/audit): kOff disables every
/// check, kCheap runs the O(num_cores) per-cycle checks (token conservation,
/// pipeline sanity, accounting), kFull additionally scans the cache/directory
/// arrays for coherence legality at a fixed interval. Auditing never changes
/// simulation results; it only observes (and aborts on a violated invariant).
enum class AuditLevel : std::uint8_t { kOff = 0, kCheap, kFull };

inline std::span<const char* const> enum_names(AuditLevel) {
  static constexpr const char* kNames[] = {"off", "cheap", "full"};
  return kNames;
}

/// Event-trace recorder knobs (src/trace). Which categories are recorded is
/// a per-run choice (RunOptions::trace_categories); these size the recorder.
/// Like AuditLevel, tracing only observes a run — TraceConfig is excluded
/// from the config fingerprint.
struct TraceConfig {
  /// Per-category ring capacity in events; the ring overwrites the oldest
  /// events and counts the drops.
  std::size_t buffer_events = std::size_t{1} << 16;
  /// Budget-deficit sampling period in cycles (kBudgetSample decimation).
  Cycle budget_sample_every = 64;
};

enum class TechniqueKind : std::uint8_t {
  kNone = 0,    // base case: no power control (normalization reference)
  kDvfs,        // 5-mode voltage+frequency scaling
  kDfs,         // frequency-only scaling
  kTwoLevel,    // DVFS + microarchitectural spike removal (IPDPS'09 hybrid)
  // Prior-art energy baselines (no budget enforcement; Section II.C):
  kThriftyBarrier,  // sleep at predicted-long barrier waits (HPCA'04 [13])
  kMeetingPoints,   // DVFS-delay non-critical threads (PACT'08 [11])
};

inline std::span<const char* const> enum_names(TechniqueKind) {
  static constexpr const char* kNames[] = {
      "none", "dvfs", "dfs", "two_level", "thrifty_barrier", "meeting_points"};
  return kNames;
}

enum class PtbPolicy : std::uint8_t {
  kToAll = 0,  // split spare tokens among all over-budget cores
  kToOne,      // all spare tokens to the single neediest core
  kDynamic,    // lock-spin -> ToOne, barrier-spin -> ToAll
};

inline std::span<const char* const> enum_names(PtbPolicy) {
  static constexpr const char* kNames[] = {"to_all", "to_one", "dynamic"};
  return kNames;
}

/// The wire name of `e` ("?" for an out-of-range value).
template <class E>
  requires std::is_enum_v<E>
const char* enum_name(E e) {
  const auto names = enum_names(E{});
  const auto i = static_cast<std::size_t>(e);
  return i < names.size() ? names[i] : "?";
}

/// Parses a wire name exactly (no case folding); false on anything else.
template <class E>
  requires std::is_enum_v<E>
bool parse_enum(std::string_view s, E& out) {
  const auto names = enum_names(E{});
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (s == names[i]) {
      out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

struct DvfsConfig {
  // The paper's five (VDD%, F%) modes.
  // {100,100} {95,95} {90,90} {90,75} {90,65}
  std::uint32_t window_cycles = 256;    // control window
  double up_hysteresis = 0.95;          // step up when avg < budget*this
  // Kim et al. HPCA'08 fast regulator: 30-50 mV/ns. At 3 GHz one cycle is
  // 0.333 ns -> ~10-16 mV/cycle; we use 12 mV/cycle.
  double mv_per_cycle = 12.0;
};

struct PtbConfig {
  bool enabled = false;
  PtbPolicy policy = PtbPolicy::kToAll;
  // Token-wire round-trip latency in cycles; 0 = derive from core count as
  // in the paper (4 cores: 1+1+1 = 3; 8: 2+1+2 = 5; 16: 4+2+4 = 10).
  std::uint32_t wire_latency_override = 0;
  std::uint32_t token_wire_bits = 4;  // 4 wires each way -> values 0..15
  // Relaxed-accuracy threshold (Section IV.C): local power-saving triggers
  // only when instantaneous power exceeds budget*(1+relax_threshold).
  double relax_threshold = 0.0;
  // Use ground-truth spin classification for the dynamic selector (paper's
  // reported configuration) or the power-pattern heuristic.
  bool dynamic_uses_ground_truth = true;

  // ToAll residual redistribution. Section III.D only says "equally
  // distribute the extra tokens": with a single equal-share pass (the
  // literal reading, and the default) a core whose deficit is smaller than
  // its share leaves a residual that evaporates even while other cores in
  // the same cycle still have deficit. When set, the residual is re-split
  // among the still-needy cores for a bounded number of extra rounds
  // (core/balancer.cpp) before anything evaporates.
  bool toall_redistribute = false;

  // The paper's stated future work (Section IV.C): use PTB's power-pattern
  // spin detection to duty-cycle-gate spinning cores for extra energy
  // savings. Detected spinners fetch only 2 cycles out of every
  // `spin_gate_period`; the first burst of real work after wake-up lifts
  // the power signature and releases the gate.
  bool gate_spinners = false;
  std::uint32_t spin_gate_period = 64;

  // Scalability (Section III.E.2): 0 = one monolithic balancer; otherwise
  // partition the CMP into clusters of this many cores, each with its own
  // replicated load-balancer at the small-cluster wire latency.
  std::uint32_t cluster_size = 0;
};

struct SimConfig {
  std::uint32_t num_cores = 16;
  CoreConfig core{};
  CacheConfig l1i{};
  CacheConfig l1d{};
  L2Config l2{};
  NocConfig noc{};
  MemConfig mem{};
  PowerConfig power{};
  ThermalConfig thermal{};
  DvfsConfig dvfs{};
  PtbConfig ptb{};

  TechniqueKind technique = TechniqueKind::kNone;

  /// Global power budget as a fraction of the analytic peak power
  /// (paper evaluates 0.5).
  double budget_fraction = 0.5;

  std::uint64_t seed = 1;
  Cycle max_cycles = 2'000'000;  // safety stop

  /// Functional (zero-time) cache warmup before the timed run, skipping the
  /// cold-start DRAM phase (standard architectural-simulation practice).
  bool functional_warmup = true;

  /// Invariant-auditor level (src/audit). Deliberately excluded from the
  /// config fingerprint: auditing observes the run, it never changes it.
  AuditLevel audit_level = AuditLevel::kOff;

  /// Event-trace recorder sizing (src/trace); excluded from the config
  /// fingerprint for the same reason as audit_level.
  TraceConfig trace{};

  /// Mesh dimensions derived from num_cores (squarest factorization).
  std::uint32_t mesh_width() const;
  std::uint32_t mesh_height() const;
};

inline std::uint32_t SimConfig::mesh_width() const {
  std::uint32_t w = 1;
  for (std::uint32_t i = 1; i * i <= num_cores; ++i)
    if (num_cores % i == 0) w = i;
  return num_cores / w;  // the wider dimension
}

inline std::uint32_t SimConfig::mesh_height() const {
  return num_cores / mesh_width();
}

// ---------------------------------------------------------------------------
// The SimConfig field table: every leaf that can change a result, once, as
// (wire name, field). "section.key" names a nested leaf, a bare key a
// top-level one. The fingerprints (sim/reporting.cpp) mix the fields in
// exactly this order — machine fields into machine_fingerprint, then the
// technique fields continue the same FNV stream into config_fingerprint —
// and the JSON codec (serve/config_json.cpp) parses and emits exactly these
// names. Results JSON, disk-cache keys and checkpoint frames embed the
// fingerprints, so entries are never reordered or removed.
//
// Observe-only knobs that can never change a result stay out of the table
// (and so out of the fingerprints and the wire): audit_level (aborts or is
// silent) and trace.* (recorder sizing). ptb-lint's fingerprint checker
// holds this list exactly equal to the set of SimConfig leaves the table
// does not name — extending SimConfig without deciding fingerprint status
// fails the lint.
// ptb-lint: fingerprint-exclude(audit_level, trace)
// ---------------------------------------------------------------------------

/// Tags the one entry the fingerprint mixes only when it is set, so every
/// config that predates the field keeps its fingerprint.
struct MixedOnlyWhenSet {};

template <class Cfg>
concept SimConfigRef = std::same_as<std::remove_const_t<Cfg>, SimConfig>;

/// Machine fields (Table 1 core/cache/NoC/DRAM/power/thermal/DVFS): two
/// runs are comparable under normalize() iff these match.
template <SimConfigRef Cfg, class F>
void for_each_machine_field(Cfg& cfg, F&& f) {
  f("num_cores", cfg.num_cores);
  f("core.rob_entries", cfg.core.rob_entries);
  f("core.lsq_entries", cfg.core.lsq_entries);
  f("core.fetch_width", cfg.core.fetch_width);
  f("core.issue_width", cfg.core.issue_width);
  f("core.commit_width", cfg.core.commit_width);
  f("core.pipeline_stages", cfg.core.pipeline_stages);
  f("core.int_alu", cfg.core.int_alu);
  f("core.int_mult", cfg.core.int_mult);
  f("core.fp_alu", cfg.core.fp_alu);
  f("core.fp_mult", cfg.core.fp_mult);
  f("core.l1d_ports", cfg.core.l1d_ports);
  f("core.bp_history_bits", cfg.core.bp_history_bits);
  f("core.bp_table_bytes", cfg.core.bp_table_bytes);
  f("l1i.size_bytes", cfg.l1i.size_bytes);
  f("l1i.assoc", cfg.l1i.assoc);
  f("l1i.line_bytes", cfg.l1i.line_bytes);
  f("l1i.hit_latency", cfg.l1i.hit_latency);
  f("l1i.mshrs", cfg.l1i.mshrs);
  f("l1d.size_bytes", cfg.l1d.size_bytes);
  f("l1d.assoc", cfg.l1d.assoc);
  f("l1d.line_bytes", cfg.l1d.line_bytes);
  f("l1d.hit_latency", cfg.l1d.hit_latency);
  f("l1d.mshrs", cfg.l1d.mshrs);
  f("l2.size_bytes_per_core", cfg.l2.size_bytes_per_core);
  f("l2.assoc", cfg.l2.assoc);
  f("l2.line_bytes", cfg.l2.line_bytes);
  f("l2.hit_latency", cfg.l2.hit_latency);
  f("l2.protocol", cfg.l2.protocol);
  f("noc.link_latency", cfg.noc.link_latency);
  f("noc.flit_bytes", cfg.noc.flit_bytes);
  f("noc.link_flits_per_cycle", cfg.noc.link_flits_per_cycle);
  f("noc.ctrl_msg_bytes", cfg.noc.ctrl_msg_bytes);
  f("noc.data_msg_bytes", cfg.noc.data_msg_bytes);
  f("mem.dram_latency", cfg.mem.dram_latency);
  f("mem.banked", cfg.mem.banked);
  f("mem.channels", cfg.mem.channels);
  f("mem.banks_per_channel", cfg.mem.banks_per_channel);
  f("mem.row_bytes", cfg.mem.row_bytes);
  f("mem.t_pre", cfg.mem.t_pre);
  f("mem.t_act", cfg.mem.t_act);
  f("mem.t_cas", cfg.mem.t_cas);
  f("mem.t_bus", cfg.mem.t_bus);
  f("power.residency_token", cfg.power.residency_token);
  f("power.peak_fetch_frac", cfg.power.peak_fetch_frac);
  f("power.peak_rob_frac", cfg.power.peak_rob_frac);
  f("power.base_int_alu", cfg.power.base_int_alu);
  f("power.base_int_mult", cfg.power.base_int_mult);
  f("power.base_fp_alu", cfg.power.base_fp_alu);
  f("power.base_fp_mult", cfg.power.base_fp_mult);
  f("power.base_load", cfg.power.base_load);
  f("power.base_store", cfg.power.base_store);
  f("power.base_branch", cfg.power.base_branch);
  f("power.base_atomic", cfg.power.base_atomic);
  f("power.base_nop", cfg.power.base_nop);
  f("power.base_jitter", cfg.power.base_jitter);
  f("power.kmeans_groups", cfg.power.kmeans_groups);
  f("power.ptht_entries", cfg.power.ptht_entries);
  f("power.leakage_per_core", cfg.power.leakage_per_core);
  f("power.clock_gated_dynamic", cfg.power.clock_gated_dynamic);
  f("power.uncore_per_core", cfg.power.uncore_per_core);
  f("power.ptht_overhead_frac", cfg.power.ptht_overhead_frac);
  f("power.ptb_wire_overhead_frac", cfg.power.ptb_wire_overhead_frac);
  f("power.vdd_nominal", cfg.power.vdd_nominal);
  f("power.freq_nominal_ghz", cfg.power.freq_nominal_ghz);
  f("thermal.ambient_c", cfg.thermal.ambient_c);
  f("thermal.r_thermal", cfg.thermal.r_thermal);
  f("thermal.tau_cycles", cfg.thermal.tau_cycles);
  f("dvfs.window_cycles", cfg.dvfs.window_cycles);
  f("dvfs.up_hysteresis", cfg.dvfs.up_hysteresis);
  f("dvfs.mv_per_cycle", cfg.dvfs.mv_per_cycle);
}

/// Technique fields: what runs on the machine (PTB knobs, technique,
/// budget, seed, run length, warmup).
template <SimConfigRef Cfg, class F>
void for_each_technique_field(Cfg& cfg, F&& f) {
  f("ptb.enabled", cfg.ptb.enabled);
  f("ptb.policy", cfg.ptb.policy);
  f("ptb.wire_latency_override", cfg.ptb.wire_latency_override);
  f("ptb.token_wire_bits", cfg.ptb.token_wire_bits);
  f("ptb.relax_threshold", cfg.ptb.relax_threshold);
  f("ptb.dynamic_uses_ground_truth", cfg.ptb.dynamic_uses_ground_truth);
  f("ptb.gate_spinners", cfg.ptb.gate_spinners);
  f("ptb.spin_gate_period", cfg.ptb.spin_gate_period);
  f("ptb.cluster_size", cfg.ptb.cluster_size);
  f("ptb.toall_redistribute", cfg.ptb.toall_redistribute,
    MixedOnlyWhenSet{});
  f("technique", cfg.technique);
  f("budget_fraction", cfg.budget_fraction);
  f("seed", cfg.seed);
  f("max_cycles", cfg.max_cycles);
  f("functional_warmup", cfg.functional_warmup);
}

/// Every table field, machine then technique.
template <SimConfigRef Cfg, class F>
void for_each_field(Cfg& cfg, F&& f) {
  for_each_machine_field(cfg, f);
  for_each_technique_field(cfg, f);
}

}  // namespace ptb

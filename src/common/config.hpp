// Simulated-machine configuration. Defaults reproduce Table 1 of the paper:
//
//   32 nm, 3 GHz, 0.9 V, 128-entry ROB + 64-entry LSQ, 4-wide decode/issue,
//   6 IntAlu / 2 IntMult / 4 FpAlu / 4 FpMult, 14-stage pipeline,
//   64 KB 16-bit-history gshare, MOESI, 300-cycle memory,
//   64 KB 2-way 1-cycle L1I/L1D, 1 MB/core 4-way 12-cycle unified L2,
//   2D mesh, 4-cycle links, 4-byte flits, 1 flit/cycle links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

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

inline const char* audit_level_name(AuditLevel level) {
  switch (level) {
    case AuditLevel::kOff: return "off";
    case AuditLevel::kCheap: return "cheap";
    case AuditLevel::kFull: return "full";
  }
  return "?";
}

/// Parses "off" / "cheap" / "full"; returns false on anything else.
inline bool parse_audit_level(std::string_view s, AuditLevel& out) {
  if (s == "off") out = AuditLevel::kOff;
  else if (s == "cheap") out = AuditLevel::kCheap;
  else if (s == "full") out = AuditLevel::kFull;
  else return false;
  return true;
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

enum class PtbPolicy : std::uint8_t {
  kToAll = 0,  // split spare tokens among all over-budget cores
  kToOne,      // all spare tokens to the single neediest core
  kDynamic,    // lock-spin -> ToOne, barrier-spin -> ToAll
};

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

}  // namespace ptb

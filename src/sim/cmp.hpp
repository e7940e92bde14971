// The CMP: instantiates cores, caches, mesh, power model and the power-
// control machinery, and runs one workload's parallel phase to completion
// under a global cycle loop.
//
// Control flow per global cycle (Section III of the paper):
//   1. cores tick (frequency scaling = tick skipping; DVFS transitions
//      stall), producing per-cycle activity;
//   2. per-core instantaneous power is computed twice: exact (for the
//      energy/AoPB results) and PTHT-estimated (the control signal);
//   3. the PTB load-balancer redistributes spare tokens (when enabled);
//   4. each core's local enforcer (DVFS / DFS / 2-level) reacts to its
//      (possibly PTB-augmented) local budget;
//   5. energy, AoPB, spin attribution and temperature are accounted.
//
// One run is one serial loop on the calling thread; parallelism lives a
// level up, across independent runs (sim/run_pool.hpp). DESIGN.md
// ("Threading model & determinism contract") lists the per-cycle phases.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/balancer.hpp"
#include "core/clustered.hpp"
#include "core/baselines.hpp"
#include "core/budget.hpp"
#include "core/policy.hpp"
#include "core/two_level.hpp"
#include "cpu/core.hpp"
#include "mem/memory_system.hpp"
#include "noc/mesh.hpp"
#include "power/energy_stats.hpp"
#include "power/power_model.hpp"
#include "power/thermal.hpp"
#include "sync/spin_tracker.hpp"
#include "sync/sync_state.hpp"
#include "trace/trace.hpp"
#include "workloads/program.hpp"

namespace ptb {

class StatsRegistry;
struct StatsDump;

struct CoreResult {
  Cycle finish_cycle = 0;
  std::uint64_t committed = 0;
  std::uint64_t flushes = 0;
  Cycle state_cycles[kNumExecStates] = {};
  double spin_energy = 0.0;  // energy spent while in spin states
  double energy = 0.0;
  double temp_mean = 0.0;
  double temp_std = 0.0;
};

struct RunResult {
  std::string benchmark;
  std::uint32_t num_cores = 0;
  Cycle cycles = 0;              // parallel-phase length
  bool hit_max_cycles = false;
  double energy = 0.0;           // total CMP energy (tokens)
  double aopb = 0.0;             // energy above the global budget (tokens)
  double budget = 0.0;           // global budget (tokens/cycle)
  double peak_power = 0.0;       // analytic peak (tokens/cycle)
  RunningStat power;             // per-cycle CMP power
  double spin_energy = 0.0;      // Σ cores' spin-state energy
  std::uint64_t total_committed = 0;

  std::vector<CoreResult> cores;

  // Optional traces (RunOptions).
  TimeSeries cmp_power_trace{1 << 12};
  std::vector<TimeSeries> core_power_traces;

  // Mechanism statistics.
  double tokens_donated = 0.0;
  double tokens_granted = 0.0;
  double tokens_evaporated = 0.0;
  std::uint64_t dvfs_transitions = 0;
  std::uint64_t to_one_cycles = 0;
  std::uint64_t to_all_cycles = 0;
  std::uint64_t spin_gated_cycles = 0;  // spinner-gating extension
  std::uint64_t barrier_sleep_cycles = 0;  // thrifty-barrier baseline
  std::uint64_t meeting_point_episodes = 0;  // meeting-points baseline

  // Memory-system counters (the substrate ablations read them).
  std::uint64_t owner_forwards = 0;  // directory: requests served by owner
  std::uint64_t writebacks = 0;      // directory: dirty lines written back
  std::uint64_t dram_accesses = 0;   // banked DRAM model only
  std::uint64_t dram_row_hits = 0;   // banked DRAM model only

  // Recorded event trace (null unless RunOptions::trace_categories != 0).
  // shared_ptr keeps RunResult cheap to move/copy through the RunPool.
  std::shared_ptr<const EventTrace> trace;

  // Stats-registry snapshot (null unless RunOptions::stats / sampling; see
  // src/stats). Same shared_ptr rationale as the trace.
  std::shared_ptr<const StatsDump> stats;

  // Invariant-audit bookkeeping (0 when auditing was off for this run).
  std::uint64_t audit_checks = 0;
  // Fingerprint of the simulated-machine parameters (technique knobs
  // excluded); normalize() cross-checks it so a result is never normalized
  // against a base run from a different machine (sim/reporting.hpp).
  std::uint64_t machine_fingerprint = 0;
};

struct RunOptions {
  bool record_cmp_trace = false;
  bool record_core_traces = false;
  /// Event-trace category mask (bits of TraceCategory; see
  /// parse_trace_categories). 0 = tracing fully off: no tracer is
  /// allocated and every emit site stays a single null-pointer branch.
  std::uint32_t trace_categories = 0;
  /// Stats registry (src/stats): when set, every component registers its
  /// counters and RunResult::stats carries the end-of-run StatsDump. Off by
  /// default: no registry is allocated and the cycle loop does no extra
  /// work. Like tracing, stats never feed back into the simulation — a
  /// stats-enabled run produces bit-identical RunResult metrics.
  bool stats = false;
  /// Time-series sample period in cycles (0 = no sampling): every period,
  /// all deterministic scalar stats are appended to a columnar buffer
  /// carried in the dump. Non-zero implies `stats`.
  Cycle stats_sample_every = 0;
  /// Cycle at which run() serializes a full-state checkpoint frame
  /// (sim/checkpoint.hpp) into `*checkpoint_out` (kNeverCycle = never).
  /// The capture happens at the top of that cycle's loop body — before the
  /// cycle executes — so a run restored from the frame replays cycle
  /// `checkpoint_at` onward and finishes with bit-identical results.
  /// 0 captures the point at loop entry (after functional warmup); like
  /// every frame it resumes only under the config it was captured with.
  /// No frame is written when the run ends before `checkpoint_at`.
  Cycle checkpoint_at = kNeverCycle;
  /// Receives the checkpoint frame bytes; null disables capture.
  std::string* checkpoint_out = nullptr;
};

/// The cycle loop's own state: what it carries from cycle to cycle, and
/// reusable per-cycle scratch, SoA-packed so the batched power model and
/// the balancer walk dense arrays. Owned by the CmpSimulator and reset (not
/// reallocated) at the start of each run, so the cycle loop itself performs
/// no allocations. restore_checkpoint() loads the carried part in place
/// (kFrame, kAcct and kRun sections) and the next run() resumes from it.
struct CycleFrame {
  // Control state carried across cycles.
  std::vector<double> freq_acc;     // fractional-frequency tick accumulator
  std::vector<double> est_ema;      // smoothed control estimate
  std::vector<double> act_ema;      // smoothed actual power
  std::vector<double> eff_budget;   // local budget after PTB augmentation
  std::vector<double> thermal_acc;  // power integrated over a thermal step
  std::vector<std::uint8_t> finished;
  EnergyAccounting acct{0.0};       // energy and AoPB so far
  // Power-monitor epoch (the over-budget signal without PTB's wires).
  bool epoch_over = false;
  double epoch_acc = 0.0;
  std::uint32_t epoch_n = 0;
  std::uint64_t spin_gated_cycles = 0;  // spinner-gating extension
  // Self-profile cycle count: a pure function of the cycle, so unlike the
  // wall-clock seconds it is deterministic and checkpointed.
  std::uint64_t prof_timed_cycles = 0;
  std::vector<ExecState> states;  // scratch for the dynamic policy selector
  // Per-cycle activity snapshot feeding core_cycle_power_batch.
  std::vector<double> fetch_exact;
  std::vector<double> fetch_est;
  std::vector<std::uint32_t> rob_occ;
  std::vector<std::uint8_t> active;
  std::vector<std::uint8_t> gated;
  std::vector<double> vdd;
  // Batched power-model outputs (overwritten in place by the EMA).
  std::vector<double> est_power;
  std::vector<double> act_power;

  void reset(std::uint32_t n, double local_budget, double global_budget);
};

class CmpSimulator {
 public:
  CmpSimulator(const SimConfig& cfg, const WorkloadProfile& profile);
  ~CmpSimulator();

  /// Run the full parallel phase and return the metrics.
  RunResult run(const RunOptions& opts = {});

  /// Functional (zero-time) cache warmup; called by run() when
  /// SimConfig::functional_warmup is set.
  void warm_caches();

  /// Restores a checkpoint frame produced via RunOptions::checkpoint_at.
  /// Validates identity before touching any state: core count, benchmark,
  /// machine fingerprint, seed and the full config fingerprint must all
  /// match, at any cycle (cycle 0 included). Then every section must load
  /// completely: a section is present exactly when its component exists
  /// under this config, and the per-core vectors are `num_cores` long.
  /// The payloads whose targets run() builds from its RunOptions
  /// (histogram, sample rows, trace rings, power traces) are checked here
  /// against targets of the same shape and applied by the next run(), which
  /// resumes from the checkpointed cycle (skipping functional warmup).
  /// Returns false with a diagnostic in `*err` on any rejected frame; the
  /// simulator may be partially mutated after a failure and must not be run
  /// (construct a fresh one).
  bool restore_checkpoint(std::string_view bytes, std::string* err = nullptr);

  // Introspection for tests (valid after construction; cores after run()).
  const BudgetManager& budgets() const { return budgets_; }
  MemorySystem& memory() { return *mem_; }
  Mesh& mesh() { return *mesh_; }
  SyncState& sync() { return *sync_; }
  Core& core(CoreId i) { return *cores_[i]; }
  const SpinTracker& tracker(CoreId i) const { return trackers_[i]; }
  /// Null when SimConfig::audit_level is kOff; otherwise the per-run
  /// invariant auditor.
  const InvariantAuditor* auditor() const { return auditor_.get(); }

 private:
  /// One end-of-cycle audit pass (only called when auditor_ is non-null);
  /// aborts via PTB_ASSERTF on the first violated invariant.
  void audit_cycle(Cycle now, const EnergyAccounting& acct, double total_act,
                   const double* eff_budget);
  /// Wall-clock self-profile of one stats run.
  struct SelfProfile;
  /// Registers one run's stats into `reg`: every component, the frame's
  /// accounting and the loop's `now` / `finished_count` (bound by
  /// reference). Returns the per-cycle power histogram it registers.
  Histogram& register_run_stats(StatsRegistry& reg, const Cycle& now,
                                const std::uint32_t& finished_count,
                                const SelfProfile& prof);
  // Both are copied: a simulator must outlive any temporary it was
  // constructed from.
  SimConfig cfg_;
  WorkloadProfile profile_;
  // Shared across simulators with the same power config + seed (the model
  // is immutable and its k-means construction is expensive; see
  // BaseEnergyModel::shared).
  std::shared_ptr<const BaseEnergyModel> energy_model_;
  BudgetManager budgets_;
  std::unique_ptr<Mesh> mesh_;
  std::unique_ptr<MemorySystem> mem_;
  std::unique_ptr<SyncState> sync_;
  std::vector<SpinTracker> trackers_;
  std::vector<std::unique_ptr<SyntheticProgram>> programs_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<TwoLevelController>> enforcers_;
  std::unique_ptr<PtbLoadBalancer> balancer_;
  std::unique_ptr<ClusteredBalancer> clustered_;
  std::unique_ptr<DynamicPolicySelector> selector_;
  std::vector<SpinPowerDetector> gate_detectors_;  // spinner gating
  std::unique_ptr<ThriftyBarrierController> thrifty_;
  std::unique_ptr<MeetingPointsController> meeting_;
  ThermalModel thermal_;
  std::unique_ptr<InvariantAuditor> auditor_;
  CycleFrame frame_;
  // The resume cycle and the checked payloads whose targets only exist
  // inside run(): staged by restore_checkpoint(), consumed by the next run().
  struct CheckpointCarry;
  std::unique_ptr<CheckpointCarry> carry_;
};

}  // namespace ptb

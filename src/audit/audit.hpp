// Dynamic invariant auditor (DIVA-style checker layer for the simulator).
//
// The simulator's headline results rest on invariants the normal code paths
// never re-verify end-to-end: the PTB balancer must conserve tokens (no
// policy may mint budget), the MOESI directory must keep single-writer/
// multiple-reader legality, the pipeline must commit in order within its
// structural bounds, and the energy/AoPB accounting must stay monotone and
// consistent. This module re-derives each of those properties from observed
// state every cycle, independently of the code being checked.
//
// Usage: the CMP cycle loop (sim/cmp.cpp) drives an InvariantAuditor when
// SimConfig::audit_level != kOff (the one switch); each
// check_* entry point is also callable standalone, which is how the
// fault-injection tests (tests/audit) verify that every auditor class
// actually fires on corrupted state. Violations are collected in an
// AuditReport (never thrown or aborted here) so callers choose the failure
// policy: the CMP aborts via PTB_ASSERTF, tests inspect the report.
//
// Auditing is read-only: it never changes simulation results, only observes
// them. SimConfig::audit_level is therefore excluded from the config
// fingerprint (sim/reporting.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace ptb {

class Core;
class EnergyAccounting;
class MemorySystem;
class PtbLoadBalancer;
class TwoLevelController;

/// The four audited invariant families (ISSUE 2 tentpole).
enum class AuditClass : std::uint8_t {
  kTokens = 0,   // PTB balancer token conservation / quantization
  kCoherence,    // MOESI legality, directory agreement, inclusion, MSHRs
  kPipeline,     // ROB/LSQ bounds, commit order, FU limits, DVFS legality
  kAccounting,   // energy/AoPB monotonicity and per-cycle consistency
  kCount,
};

inline constexpr std::uint32_t kNumAuditClasses =
    static_cast<std::uint32_t>(AuditClass::kCount);

const char* audit_class_name(AuditClass c);

struct AuditViolation {
  AuditClass cls = AuditClass::kTokens;
  Cycle cycle = 0;
  std::string message;
};

/// Violation collector: counts every violation per class and keeps the first
/// few full messages for diagnostics.
class AuditReport {
 public:
  void add(AuditClass cls, Cycle cycle, std::string message);

  std::uint64_t count(AuditClass cls) const {
    return counts_[static_cast<std::size_t>(cls)];
  }
  std::uint64_t total() const;
  bool clean() const { return total() == 0; }

  /// The first kMaxKept violations, in detection order.
  const std::vector<AuditViolation>& kept() const { return kept_; }

  /// One-line digest: per-class counts plus the first violation's message.
  std::string summary() const;

  static constexpr std::size_t kMaxKept = 16;

 private:
  std::uint64_t counts_[kNumAuditClasses] = {};
  std::vector<AuditViolation> kept_;
};

class InvariantAuditor {
 public:
  /// `cfg` is copied: the auditor must outlive any temporary config the
  /// tests construct it from.
  explicit InvariantAuditor(const SimConfig& cfg);

  // --- invariant checks ------------------------------------------------
  // Each entry point audits one invariant family against the live
  // component state and records violations in report(). All checks are
  // read-only and callable in any order; the CMP calls them at the end of
  // each simulated cycle, the fault-injection tests call them directly on
  // deliberately corrupted components.

  /// Token conservation for one balancer (the monolithic balancer, or one
  /// cluster of the clustered balancer). `eff_budget` points at the
  /// balancer's slice of the per-core effective budgets (length
  /// b.num_cores()). Verifies, at post-cycle state:
  ///   donated == granted + evaporated + in-flight   (nothing minted/lost)
  ///   in-flight == Σ outstanding donor debits       (wires mirror debits)
  ///   Σ eff_budget <= num_cores * local_budget + this cycle's grants
  ///     (no policy mints; the grant term covers the one cycle in which a
  ///     landing grant and the donor's recovered debit coexist)
  ///   per-cycle donations are multiples of the 4-bit wire quantum and
  ///   bounded by num_cores * (2^bits - 1) quanta    (quantization model)
  void check_balancer(Cycle now, const PtbLoadBalancer& b,
                      const double* eff_budget, std::size_t n);

  /// MOESI coherence legality over every L1 plus the directory state in the
  /// L2 banks: per line, at most one owner-state (M/E/O) core; an M/E core
  /// excludes every other core's copy; O only under the MOESI protocol;
  /// inclusion (valid L1 lines resident in the home L2 bank); directory
  /// agreement (a recorded owner actually holds an owner-state copy; every
  /// valid L1 copy is tracked as owner or sharer); per-core MSHR occupancy
  /// within CacheConfig::mshrs.
  void check_coherence(Cycle now, const MemorySystem& mem);

  /// Pipeline sanity for one core: ROB/LSQ occupancy within configured
  /// bounds, in-order retirement (head_seq advances only by committing),
  /// fetched == committed + in-flight, commit-width bound per tick, and
  /// no functional-unit class oversubscribed this cycle.
  void check_core(Cycle now, CoreId i, const Core& core);

  /// DVFS mode-transition legality for one core's enforcer: mode within the
  /// 5-mode table, single-step transitions counted exactly once, a stall
  /// window opened on every transition, and no core tick during a stall
  /// window (pass the core so tick progress can be cross-checked).
  void check_enforcer(Cycle now, CoreId i, const TwoLevelController& enf,
                      const Core& core);

  /// Accounting consistency, called once per cycle after
  /// EnergyAccounting::record_cycle: energy/AoPB non-negative and monotone,
  /// this cycle's deltas exactly match the recorded power sample, and the
  /// AoPB delta equals max(0, power - budget).
  void check_accounting(Cycle now, const EnergyAccounting& acct,
                        double cycle_power);

  // --- results ---------------------------------------------------------
  const AuditReport& report() const { return report_; }
  bool clean() const { return report_.clean(); }
  /// Total number of check_* invocations (tests assert audits really ran).
  std::uint64_t checks_run() const { return checks_; }

  AuditLevel level() const { return cfg_.audit_level; }
  /// True when the (expensive) coherence scan is due this cycle under
  /// kFull; kCheap never scans.
  bool coherence_scan_due(Cycle now) const {
    return cfg_.audit_level == AuditLevel::kFull &&
           (now + 1) % kCoherenceScanInterval == 0;
  }

  /// Cache/directory scans are O(total cache lines); under kFull they run
  /// once per this many cycles (and once at end of run) instead of every
  /// cycle.
  static constexpr Cycle kCoherenceScanInterval = 4096;

 private:
  struct CoreSnap {
    bool valid = false;
    std::uint32_t rob = 0;
    std::uint32_t lsq = 0;
    std::uint64_t head_seq = 0;
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t ticks = 0;
  };
  struct EnforcerSnap {
    bool valid = false;
    std::uint32_t mode = 0;
    std::uint64_t transitions = 0;
    bool stall_next = false;   // enforcer predicted a stall for this cycle
    std::uint64_t ticks = 0;   // core ticks when the prediction was made
  };
  struct BalancerSnap {
    const void* key = nullptr;  // balancer identity (per-cluster history)
    double donated = 0.0;
    double granted = 0.0;
  };

  void violationf(AuditClass cls, Cycle now, const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 4, 5)))
#endif
      ;

  SimConfig cfg_;
  AuditReport report_;
  std::uint64_t checks_ = 0;

  std::vector<CoreSnap> core_snap_;
  std::vector<EnforcerSnap> enf_snap_;
  std::vector<BalancerSnap> bal_snap_;
  bool acct_valid_ = false;
  double prev_energy_ = 0.0;
  double prev_aopb_ = 0.0;
};

}  // namespace ptb

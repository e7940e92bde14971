#include "audit/audit.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>

#include "core/balancer.hpp"
#include "core/two_level.hpp"
#include "cpu/core.hpp"
#include "dvfs/dvfs.hpp"
#include "mem/memory_system.hpp"
#include "power/energy_stats.hpp"

namespace ptb {

const char* audit_class_name(AuditClass c) {
  switch (c) {
    case AuditClass::kTokens: return "tokens";
    case AuditClass::kCoherence: return "coherence";
    case AuditClass::kPipeline: return "pipeline";
    case AuditClass::kAccounting: return "accounting";
    case AuditClass::kCount: break;
  }
  return "?";
}

void AuditReport::add(AuditClass cls, Cycle cycle, std::string message) {
  ++counts_[static_cast<std::size_t>(cls)];
  if (kept_.size() < kMaxKept) {
    kept_.push_back({cls, cycle, std::move(message)});
  }
}

std::uint64_t AuditReport::total() const {
  std::uint64_t t = 0;
  for (const std::uint64_t c : counts_) t += c;
  return t;
}

std::string AuditReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu violation(s): tokens=%llu coherence=%llu "
                "pipeline=%llu accounting=%llu",
                static_cast<unsigned long long>(total()),
                static_cast<unsigned long long>(count(AuditClass::kTokens)),
                static_cast<unsigned long long>(count(AuditClass::kCoherence)),
                static_cast<unsigned long long>(count(AuditClass::kPipeline)),
                static_cast<unsigned long long>(
                    count(AuditClass::kAccounting)));
  std::string out = buf;
  if (!kept_.empty()) {
    out += "; first: [";
    out += audit_class_name(kept_.front().cls);
    std::snprintf(buf, sizeof(buf), "@%llu] ",
                  static_cast<unsigned long long>(kept_.front().cycle));
    out += buf;
    out += kept_.front().message;
  }
  return out;
}

InvariantAuditor::InvariantAuditor(const SimConfig& cfg) : cfg_(cfg) {
  core_snap_.resize(cfg_.num_cores);
  enf_snap_.resize(cfg_.num_cores);
}

void InvariantAuditor::violationf(AuditClass cls, Cycle now, const char* fmt,
                                  ...) {
  char buf[512];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  report_.add(cls, now, buf);
}

// ---------------------------------------------------------------------------
// Token conservation (AuditClass::kTokens)
// ---------------------------------------------------------------------------

void InvariantAuditor::check_balancer(Cycle now, const PtbLoadBalancer& b,
                                      const double* eff_budget,
                                      std::size_t n) {
  ++checks_;
  if (n != b.num_cores()) {
    violationf(AuditClass::kTokens, now,
               "eff_budget arity %zu != balancer cores %u", n,
               b.num_cores());
    return;
  }
  const double donated = b.tokens_donated;
  const double disposed = b.tokens_granted + b.tokens_evaporated;
  const double in_flight = b.in_flight_tokens();
  const double eps = 1e-6 * std::max(1.0, donated);

  // Conservation: every donated token is granted, evaporated, or still on
  // the wires. No policy may mint or destroy tokens.
  if (std::abs(donated - disposed - in_flight) > eps) {
    violationf(AuditClass::kTokens, now,
               "token conservation: donated %.9g != granted %.9g + "
               "evaporated %.9g + in-flight %.9g (drift %.3g)",
               donated, b.tokens_granted, b.tokens_evaporated, in_flight,
               donated - disposed - in_flight);
  }
  // The donors' outstanding budget debits must mirror the wires exactly:
  // a donated token tightens its donor's budget until the grant lands.
  if (std::abs(b.outstanding_total() - in_flight) > eps) {
    violationf(AuditClass::kTokens, now,
               "outstanding donor debits %.9g != in-flight tokens %.9g",
               b.outstanding_total(), in_flight);
  }
  const double local = b.local_budget();
  double eff_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    eff_sum += eff_budget[i];
    if (eff_budget[i] < -1e-9 * std::max(1.0, local)) {
      violationf(AuditClass::kTokens, now,
                 "core %zu effective budget %.9g is negative", i,
                 eff_budget[i]);
    }
  }

  BalancerSnap* snap = nullptr;
  for (auto& s : bal_snap_) {
    if (s.key == &b) snap = &s;
  }
  if (snap == nullptr) {
    bal_snap_.push_back({&b, 0.0, 0.0});
    snap = &bal_snap_.back();
  }
  const double delta = donated - snap->donated;
  const double granted_now = b.tokens_granted - snap->granted;

  // No minting: the effective budgets can never exceed the static local
  // shares plus this cycle's landing grants (a landing grant and its
  // donor's recovered debit legitimately coexist for exactly one cycle;
  // grants themselves come only out of prior donations).
  const double cap = static_cast<double>(n) * local + granted_now;
  if (eff_sum > cap + 1e-9 * std::max(1.0, cap)) {
    violationf(AuditClass::kTokens, now,
               "budget minted: sum(eff_budget) %.9g > %zu * local %.9g "
               "+ grants %.9g",
               eff_sum, n, local, granted_now);
  }

  // Wire quantization: this cycle's donations must be a whole number of
  // 4-bit wire quanta, at most (2^bits - 1) quanta per core.
  const double q = b.token_quantum();
  if (delta < -eps) {
    violationf(AuditClass::kTokens, now,
               "cumulative donations decreased by %.9g", -delta);
  } else if (q > 0.0) {
    const double max_cycle =
        static_cast<double>(n) * static_cast<double>(b.max_wire_count()) * q;
    if (delta > max_cycle + eps) {
      violationf(AuditClass::kTokens, now,
                 "donation burst %.9g exceeds wire capacity %.9g "
                 "(%zu cores x %u counts x quantum %.9g)",
                 delta, max_cycle, n, b.max_wire_count(), q);
    }
    const double k = std::round(delta / q);
    if (std::abs(delta - k * q) > 1e-6 * std::max(q, delta)) {
      violationf(AuditClass::kTokens, now,
                 "donation delta %.12g is not a multiple of the wire "
                 "quantum %.12g",
                 delta, q);
    }
  }
  snap->donated = donated;
  snap->granted = b.tokens_granted;
}

// ---------------------------------------------------------------------------
// Coherence legality (AuditClass::kCoherence)
// ---------------------------------------------------------------------------

void InvariantAuditor::check_coherence(Cycle now, const MemorySystem& mem) {
  ++checks_;
  struct LineView {
    std::uint32_t owners = 0;  // cores holding M/E/O
    std::uint32_t excl = 0;    // cores holding M/E
    std::uint32_t valid = 0;   // cores holding any valid copy
    std::uint32_t owned = 0;   // cores holding O
  };
  // std::map, not unordered: violation emission order must be
  // deterministic (repo determinism rule, scripts/lint.sh).
  std::map<Addr, LineView> lines;

  const std::uint32_t n = cfg_.num_cores;
  for (CoreId c = 0; c < n; ++c) {
    for (const Cache* l1 : {&mem.l1i(c), &mem.l1d(c)}) {
      for (const Cache::Line& l : l1->all_lines()) {
        if (l.state == CoherenceState::kInvalid) continue;
        LineView& v = lines[l.tag];
        v.valid |= (1u << c);
        switch (l.state) {
          case CoherenceState::kModified:
          case CoherenceState::kExclusive:
            v.excl |= (1u << c);
            v.owners |= (1u << c);
            break;
          case CoherenceState::kOwned:
            v.owned |= (1u << c);
            v.owners |= (1u << c);
            break;
          default:
            break;
        }
      }
    }
  }

  const DirectoryController& dir = mem.directory();
  const std::uint32_t line_bytes = cfg_.l1d.line_bytes;
  for (const auto& [line, v] : lines) {
    if (std::popcount(v.owners) > 1) {
      violationf(AuditClass::kCoherence, now,
                 "line 0x%llx has %d owner-state (M/E/O) cores, mask 0x%x",
                 static_cast<unsigned long long>(line),
                 std::popcount(v.owners), v.owners);
    }
    if (v.excl != 0 && v.valid != v.excl) {
      // An M/E copy must be the only valid copy CMP-wide (same-core L1I/L1D
      // duplicates are folded into one bit, so this is per-core SWMR).
      violationf(AuditClass::kCoherence, now,
                 "line 0x%llx is M/E at mask 0x%x but also valid at 0x%x",
                 static_cast<unsigned long long>(line), v.excl,
                 v.valid & ~v.excl);
    }
    if (v.owned != 0 && cfg_.l2.protocol == CoherenceProtocol::kMesi) {
      violationf(AuditClass::kCoherence, now,
                 "line 0x%llx in O state under the MESI protocol (mask 0x%x)",
                 static_cast<unsigned long long>(line), v.owned);
    }
    // Inclusion + directory tracking: the home L2 bank must hold the line
    // and record every core that has a copy (as owner or sharer; sharer
    // bits may be stale the other way because S evictions are silent).
    const CoreId home = dir.home_of(line);
    const Cache::Line* entry =
        dir.l2_bank(home).find(line * line_bytes);
    if (entry == nullptr || entry->state == CoherenceState::kInvalid) {
      violationf(AuditClass::kCoherence, now,
                 "inclusion: line 0x%llx valid in L1 mask 0x%x but not "
                 "resident in home L2 bank %u",
                 static_cast<unsigned long long>(line), v.valid, home);
      continue;
    }
    for (CoreId c = 0; c < n; ++c) {
      if (!(v.valid & (1u << c))) continue;
      const bool tracked =
          entry->owner == c || ((entry->sharers >> c) & 1u) != 0;
      if (!tracked) {
        violationf(AuditClass::kCoherence, now,
                   "directory: core %u holds line 0x%llx but home bank %u "
                   "tracks owner=%d sharers=0x%x",
                   c, static_cast<unsigned long long>(line), home,
                   entry->owner == kNoCore ? -1
                                           : static_cast<int>(entry->owner),
                   entry->sharers);
      }
    }
  }

  // Directory owner agreement: a recorded owner must actually hold an
  // owner-state copy (owner evictions are never silent).
  for (CoreId b = 0; b < n; ++b) {
    for (const Cache::Line& l : dir.l2_bank(b).all_lines()) {
      if (l.state == CoherenceState::kInvalid || l.owner == kNoCore) continue;
      const auto it = lines.find(l.tag);
      const bool holds =
          it != lines.end() && (it->second.owners & (1u << l.owner)) != 0;
      if (!holds) {
        violationf(AuditClass::kCoherence, now,
                   "directory: bank %u records core %u as owner of line "
                   "0x%llx but that core holds no M/E/O copy",
                   b, l.owner, static_cast<unsigned long long>(l.tag));
      }
    }
  }

  // MSHR bound: in-flight misses per core never exceed the configured MSHRs.
  for (CoreId c = 0; c < n; ++c) {
    const std::size_t used = mem.mshr_in_flight(c);
    if (used > cfg_.l1d.mshrs) {
      violationf(AuditClass::kCoherence, now,
                 "core %u has %zu MSHRs in flight (limit %u)", c, used,
                 cfg_.l1d.mshrs);
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline sanity (AuditClass::kPipeline)
// ---------------------------------------------------------------------------

void InvariantAuditor::check_core(Cycle now, CoreId i, const Core& core) {
  ++checks_;
  if (i >= core_snap_.size()) core_snap_.resize(i + 1);
  CoreSnap cur;
  cur.valid = true;
  cur.rob = core.rob_occupancy();
  cur.lsq = core.lsq_occupancy();
  cur.head_seq = core.head_seq();
  cur.committed = core.committed;
  cur.fetched = core.fetched;
  cur.ticks = core.ticks;

  if (cur.rob > cfg_.core.rob_entries) {
    violationf(AuditClass::kPipeline, now,
               "core %u ROB occupancy %u exceeds %u entries", i, cur.rob,
               cfg_.core.rob_entries);
  }
  if (cur.lsq > cfg_.core.lsq_entries) {
    violationf(AuditClass::kPipeline, now,
               "core %u LSQ occupancy %u exceeds %u entries", i, cur.lsq,
               cfg_.core.lsq_entries);
  }
  if (cur.lsq > cur.rob) {
    violationf(AuditClass::kPipeline, now,
               "core %u LSQ occupancy %u exceeds ROB occupancy %u", i,
               cur.lsq, cur.rob);
  }
  // In-order retirement: the ROB head advances exactly once per committed
  // op (there is no wrong-path dispatch to roll back).
  if (cur.head_seq != cur.committed) {
    violationf(AuditClass::kPipeline, now,
               "core %u ROB head seq %llu != committed %llu "
               "(out-of-order retirement)",
               i, static_cast<unsigned long long>(cur.head_seq),
               static_cast<unsigned long long>(cur.committed));
  }
  if (cur.fetched != cur.committed + cur.rob) {
    violationf(AuditClass::kPipeline, now,
               "core %u fetched %llu != committed %llu + in-flight %u", i,
               static_cast<unsigned long long>(cur.fetched),
               static_cast<unsigned long long>(cur.committed), cur.rob);
  }
  // Functional units: the issue stage may never oversubscribe a class.
  const FunctionalUnits& fus = core.fus();
  for (std::uint32_t c = 0; c < kNumOpClasses; ++c) {
    const OpClass cls = static_cast<OpClass>(c);
    if (fus.used(cls) > fus.limit(cls)) {
      violationf(AuditClass::kPipeline, now,
                 "core %u issued %u %s ops this cycle (limit %u)", i,
                 fus.used(cls), op_class_name(cls), fus.limit(cls));
    }
  }
  const CoreSnap& prev = core_snap_[i];
  if (prev.valid) {
    if (cur.head_seq < prev.head_seq || cur.committed < prev.committed ||
        cur.fetched < prev.fetched || cur.ticks < prev.ticks) {
      violationf(AuditClass::kPipeline, now,
                 "core %u progress counters moved backwards "
                 "(head %llu->%llu committed %llu->%llu)",
                 i, static_cast<unsigned long long>(prev.head_seq),
                 static_cast<unsigned long long>(cur.head_seq),
                 static_cast<unsigned long long>(prev.committed),
                 static_cast<unsigned long long>(cur.committed));
    } else {
      const std::uint64_t dc = cur.committed - prev.committed;
      const std::uint64_t dt = cur.ticks - prev.ticks;
      if (dc > dt * cfg_.core.commit_width) {
        violationf(AuditClass::kPipeline, now,
                   "core %u committed %llu ops in %llu ticks "
                   "(commit width %u)",
                   i, static_cast<unsigned long long>(dc),
                   static_cast<unsigned long long>(dt),
                   cfg_.core.commit_width);
      }
    }
  }
  core_snap_[i] = cur;
}

void InvariantAuditor::check_enforcer(Cycle now, CoreId i,
                                      const TwoLevelController& enf,
                                      const Core& core) {
  ++checks_;
  if (i >= enf_snap_.size()) enf_snap_.resize(i + 1);
  const DvfsController& dvfs = enf.dvfs();
  const std::uint32_t mode = dvfs.mode();

  if (mode >= kDvfsModes.size()) {
    violationf(AuditClass::kPipeline, now,
               "core %u DVFS mode %u outside the %zu-mode table", i, mode,
               kDvfsModes.size());
  }
  if (enf.vdd_ratio() <= 0.0 || enf.vdd_ratio() > 1.0 ||
      enf.freq_ratio() <= 0.0 || enf.freq_ratio() > 1.0) {
    violationf(AuditClass::kPipeline, now,
               "core %u V/f ratios out of range: vdd %.3f freq %.3f", i,
               enf.vdd_ratio(), enf.freq_ratio());
  }

  const EnforcerSnap& prev = enf_snap_[i];
  if (prev.valid && mode != prev.mode) {
    const std::uint32_t step =
        mode > prev.mode ? mode - prev.mode : prev.mode - mode;
    if (step != 1) {
      violationf(AuditClass::kPipeline, now,
                 "core %u DVFS mode jumped %u -> %u (single-step ladder)", i,
                 prev.mode, mode);
    }
    if (dvfs.transitions != prev.transitions + 1) {
      violationf(AuditClass::kPipeline, now,
                 "core %u DVFS mode changed %u -> %u but transitions "
                 "counter went %llu -> %llu",
                 i, prev.mode, mode,
                 static_cast<unsigned long long>(prev.transitions),
                 static_cast<unsigned long long>(dvfs.transitions));
    }
    // Every transition opens a stall window (>= 1 cycle PLL resync, more
    // when VDD swings at the regulator slew rate).
    if (dvfs.transition_until() < now + 1) {
      violationf(AuditClass::kPipeline, now,
                 "core %u DVFS transition %u -> %u opened no stall window "
                 "(transition_until %llu, now %llu)",
                 i, prev.mode, mode,
                 static_cast<unsigned long long>(dvfs.transition_until()),
                 static_cast<unsigned long long>(now));
    }
  }
  // A core predicted stalled for this cycle must not have ticked.
  if (prev.valid && prev.stall_next && core.ticks != prev.ticks) {
    violationf(AuditClass::kPipeline, now,
               "core %u ticked during a DVFS transition stall window "
               "(ticks %llu -> %llu)",
               i, static_cast<unsigned long long>(prev.ticks),
               static_cast<unsigned long long>(core.ticks));
  }

  EnforcerSnap cur;
  cur.valid = true;
  cur.mode = mode;
  cur.transitions = dvfs.transitions;
  cur.stall_next = enf.stalled(now + 1);
  cur.ticks = core.ticks;
  enf_snap_[i] = cur;
}

// ---------------------------------------------------------------------------
// Energy / AoPB accounting (AuditClass::kAccounting)
// ---------------------------------------------------------------------------

void InvariantAuditor::check_accounting(Cycle now,
                                        const EnergyAccounting& acct,
                                        double cycle_power) {
  ++checks_;
  const double energy = acct.energy();
  const double aopb = acct.aopb();
  const double budget = acct.budget();
  const double eps = 1e-9 * std::max(1.0, energy);

  if (!(budget > 0.0)) {
    violationf(AuditClass::kAccounting, now, "global budget %.9g is not > 0",
               budget);
  }
  if (cycle_power < -eps) {
    violationf(AuditClass::kAccounting, now, "cycle power %.9g is negative",
               cycle_power);
  }
  if (energy < -eps || aopb < -eps) {
    violationf(AuditClass::kAccounting, now,
               "negative accumulators: energy %.9g aopb %.9g", energy, aopb);
  }
  if (aopb > energy + eps) {
    violationf(AuditClass::kAccounting, now,
               "AoPB %.9g exceeds total energy %.9g", aopb, energy);
  }
  if (acct_valid_) {
    if (energy < prev_energy_ - eps || aopb < prev_aopb_ - eps) {
      violationf(AuditClass::kAccounting, now,
                 "accumulators moved backwards: energy %.9g -> %.9g, "
                 "aopb %.9g -> %.9g",
                 prev_energy_, energy, prev_aopb_, aopb);
    }
    const double de = energy - prev_energy_;
    if (std::abs(de - cycle_power) > eps) {
      violationf(AuditClass::kAccounting, now,
                 "energy delta %.9g != recorded cycle power %.9g", de,
                 cycle_power);
    }
    const double expect_aopb = std::max(0.0, cycle_power - budget);
    const double da = aopb - prev_aopb_;
    if (std::abs(da - expect_aopb) > eps) {
      violationf(AuditClass::kAccounting, now,
                 "AoPB delta %.9g != max(0, power %.9g - budget %.9g)", da,
                 cycle_power, budget);
    }
  }
  acct_valid_ = true;
  prev_energy_ = energy;
  prev_aopb_ = aopb;
}

}  // namespace ptb

// Fault-injection tests for the invariant auditor (src/audit): each test
// corrupts exactly one component invariant and asserts that the matching
// auditor class — and only that class — fires. A clean 16-core full-audit
// run over a real suite benchmark closes the loop: the auditor passes on
// healthy state and catches every seeded fault.
#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/balancer.hpp"
#include "core/two_level.hpp"
#include "mem/memory_system.hpp"
#include "noc/mesh.hpp"
#include "power/energy_stats.hpp"
#include "sim/cmp.hpp"
#include "sim/experiment.hpp"
#include "workloads/suite.hpp"

namespace ptb {
namespace {

WorkloadProfile tiny_profile() {
  WorkloadProfile p;
  p.name = "tiny";
  p.iterations = 2;
  p.ops_per_iteration = 3000;
  p.imbalance = 0.1;
  p.num_locks = 2;
  p.cs_per_1k_ops = 4.0;
  p.cs_len_ops = 10;
  return p;
}

SimConfig audited_cfg(std::uint32_t cores, AuditLevel level,
                      bool ptb = true) {
  TechniqueSpec t{"t", TechniqueKind::kTwoLevel, ptb, PtbPolicy::kToAll, 0.0};
  SimConfig cfg = make_sim_config(cores, t);
  cfg.audit_level = level;
  cfg.max_cycles = 2'000'000;
  return cfg;
}

/// Asserts only `cls` fired (and at least once).
void expect_only(const InvariantAuditor& aud, AuditClass cls) {
  for (std::uint32_t c = 0; c < kNumAuditClasses; ++c) {
    const AuditClass k = static_cast<AuditClass>(c);
    if (k == cls) {
      EXPECT_GE(aud.report().count(k), 1u) << audit_class_name(k);
    } else {
      EXPECT_EQ(aud.report().count(k), 0u) << audit_class_name(k);
    }
  }
}

// --- report plumbing -------------------------------------------------------

TEST(AuditReport, CountsPerClassAndKeepsFirstMessages) {
  AuditReport r;
  EXPECT_TRUE(r.clean());
  for (int i = 0; i < 40; ++i) r.add(AuditClass::kTokens, 7, "tok");
  r.add(AuditClass::kCoherence, 9, "coh");
  EXPECT_EQ(r.count(AuditClass::kTokens), 40u);
  EXPECT_EQ(r.count(AuditClass::kCoherence), 1u);
  EXPECT_EQ(r.total(), 41u);
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.kept().size(), AuditReport::kMaxKept);
  EXPECT_EQ(r.kept().front().cycle, 7u);
  EXPECT_NE(r.summary().find("tokens=40"), std::string::npos);
  EXPECT_NE(r.summary().find("tok"), std::string::npos);
}

// --- token conservation (fault injection) ----------------------------------

TEST(AuditTokens, CleanBalancerPassesEveryCycle) {
  SimConfig cfg = audited_cfg(4, AuditLevel::kCheap);
  InvariantAuditor aud(cfg);
  PtbLoadBalancer b(cfg.ptb, 4, 2.0);
  std::vector<double> est{0.5, 0.5, 4.0, 4.0};
  std::vector<double> eff(4, 2.0);
  for (Cycle now = 0; now < 64; ++now) {
    b.cycle(now, est, /*global_over=*/true, PtbPolicy::kToAll, eff);
    aud.check_balancer(now, b, eff.data(), 4);
  }
  EXPECT_TRUE(aud.clean()) << aud.report().summary();
  EXPECT_GT(b.tokens_donated, 0.0);  // the scenario actually donates
}

TEST(AuditTokens, CorruptedDonationCounterFires) {
  SimConfig cfg = audited_cfg(4, AuditLevel::kCheap);
  InvariantAuditor aud(cfg);
  PtbLoadBalancer b(cfg.ptb, 4, 2.0);
  std::vector<double> est{0.5, 0.5, 4.0, 4.0};
  std::vector<double> eff(4, 2.0);
  for (Cycle now = 0; now < 32; ++now) {
    b.cycle(now, est, true, PtbPolicy::kToAll, eff);
    aud.check_balancer(now, b, eff.data(), 4);
  }
  ASSERT_TRUE(aud.clean()) << aud.report().summary();
  b.tokens_donated += 1.0;  // seeded fault: a token appears from nowhere
  aud.check_balancer(32, b, eff.data(), 4);
  expect_only(aud, AuditClass::kTokens);
}

TEST(AuditTokens, MintedEffectiveBudgetFires) {
  SimConfig cfg = audited_cfg(4, AuditLevel::kCheap);
  InvariantAuditor aud(cfg);
  PtbLoadBalancer b(cfg.ptb, 4, 2.0);
  // Seeded fault: a policy hands every core 10x its local share.
  std::vector<double> eff(4, 20.0);
  aud.check_balancer(0, b, eff.data(), 4);
  expect_only(aud, AuditClass::kTokens);
}

TEST(AuditTokens, EffBudgetArityMismatchFires) {
  SimConfig cfg = audited_cfg(4, AuditLevel::kCheap);
  InvariantAuditor aud(cfg);
  PtbLoadBalancer b(cfg.ptb, 4, 2.0);
  std::vector<double> eff(4, 2.0);
  aud.check_balancer(0, b, eff.data(), 3);  // caller/balancer disagree
  expect_only(aud, AuditClass::kTokens);
}

// --- coherence legality (fault injection) ----------------------------------

struct MemFixture {
  SimConfig cfg;
  Mesh mesh;
  MemorySystem mem;
  explicit MemFixture(std::uint32_t cores)
      : cfg(audited_cfg(cores, AuditLevel::kFull)),
        mesh(cfg.noc, cfg.mesh_width(), cfg.mesh_height()),
        mem(cfg, mesh) {}
};

TEST(AuditCoherence, WarmedStateIsClean) {
  MemFixture f(4);
  for (Addr line = 100; line < 140; ++line) {
    f.mem.directory().warm(line % 4, line, false, /*exclusive=*/true);
  }
  InvariantAuditor aud(f.cfg);
  aud.check_coherence(0, f.mem);
  EXPECT_TRUE(aud.clean()) << aud.report().summary();
}

TEST(AuditCoherence, TwoModifiedCopiesFire) {
  MemFixture f(4);
  const Addr line = 123;
  const Addr addr = line * f.cfg.l1d.line_bytes;
  f.mem.directory().warm(0, line, false, /*exclusive=*/false);
  f.mem.directory().warm(1, line, false, /*exclusive=*/false);
  // Seeded fault: both sharers silently upgrade to M (lost invalidation).
  f.mem.l1d(0).find(addr)->state = CoherenceState::kModified;
  f.mem.l1d(1).find(addr)->state = CoherenceState::kModified;
  InvariantAuditor aud(f.cfg);
  aud.check_coherence(0, f.mem);
  expect_only(aud, AuditClass::kCoherence);
}

TEST(AuditCoherence, InclusionHoleFires) {
  MemFixture f(4);
  const Addr line = 321;
  const Addr addr = line * f.cfg.l1d.line_bytes;
  f.mem.directory().warm(2, line, false, /*exclusive=*/true);
  // Seeded fault: the home L2 bank drops the line while an L1 copy lives.
  const CoreId home = f.mem.directory().home_of(line);
  f.mem.directory().l2_bank(home).invalidate(addr);
  InvariantAuditor aud(f.cfg);
  aud.check_coherence(0, f.mem);
  expect_only(aud, AuditClass::kCoherence);
}

TEST(AuditCoherence, StaleDirectoryOwnerFires) {
  MemFixture f(4);
  const Addr line = 77;
  const Addr addr = line * f.cfg.l1d.line_bytes;
  f.mem.directory().warm(1, line, false, /*exclusive=*/true);
  // Seeded fault: the owner's L1 copy vanishes without notifying the
  // directory (owner evictions must never be silent).
  f.mem.l1d(1).invalidate(addr);
  InvariantAuditor aud(f.cfg);
  aud.check_coherence(0, f.mem);
  expect_only(aud, AuditClass::kCoherence);
}

// --- pipeline sanity (fault injection) --------------------------------------

TEST(AuditPipeline, CorruptedFetchCounterFires) {
  SimConfig cfg = audited_cfg(2, AuditLevel::kCheap, /*ptb=*/false);
  CmpSimulator sim(cfg, tiny_profile());
  InvariantAuditor aud(cfg);
  aud.check_core(0, 0, sim.core(0));
  ASSERT_TRUE(aud.clean()) << aud.report().summary();
  sim.core(0).fetched += 7;  // seeded fault: fetches without ROB entries
  aud.check_core(1, 0, sim.core(0));
  expect_only(aud, AuditClass::kPipeline);
}

TEST(AuditPipeline, BackwardCommitCounterFires) {
  SimConfig cfg = audited_cfg(2, AuditLevel::kCheap, /*ptb=*/false);
  CmpSimulator sim(cfg, tiny_profile());
  InvariantAuditor aud(cfg);
  sim.core(0).committed = 100;
  sim.core(0).fetched = 100;
  aud.check_core(0, 0, sim.core(0));
  // head_seq (still 0) != committed fires immediately; the regression we
  // also want is the monotonicity check on the next sample.
  sim.core(0).committed = 50;
  sim.core(0).fetched = 50;
  aud.check_core(1, 0, sim.core(0));
  expect_only(aud, AuditClass::kPipeline);
}

TEST(AuditPipeline, TickDuringDvfsStallFires) {
  SimConfig cfg = audited_cfg(1, AuditLevel::kCheap, /*ptb=*/false);
  cfg.technique = TechniqueKind::kDvfs;
  CmpSimulator sim(cfg, tiny_profile());
  Core& core = sim.core(0);
  TwoLevelController enf(cfg, TechniqueKind::kDvfs);
  InvariantAuditor aud(cfg);
  // Drive the enforcer hard over budget until a mode transition opens a
  // stall window (the auditor snapshots stalled(now + 1) each cycle).
  bool injected = false;
  for (Cycle now = 0; now < 50'000 && !injected; ++now) {
    enf.tick(now, /*est_power=*/10.0, /*budget=*/0.5, /*enforce=*/true,
             0.0, core);
    aud.check_enforcer(now, 0, enf, core);
    ASSERT_TRUE(aud.clean()) << aud.report().summary();
    if (enf.stalled(now + 1)) {
      ++core.ticks;  // seeded fault: the core runs through the stall
      aud.check_enforcer(now + 1, 0, enf, core);
      injected = true;
    }
  }
  ASSERT_TRUE(injected) << "enforcer never opened a stall window";
  expect_only(aud, AuditClass::kPipeline);
}

// --- accounting (fault injection) -------------------------------------------

TEST(AuditAccounting, ConsistentAccountingIsClean) {
  SimConfig cfg = audited_cfg(2, AuditLevel::kCheap);
  InvariantAuditor aud(cfg);
  EnergyAccounting acct(10.0);
  for (Cycle now = 0; now < 100; ++now) {
    const double p = 8.0 + static_cast<double>(now % 5);  // crosses budget
    acct.record_cycle(p);
    aud.check_accounting(now, acct, p);
  }
  EXPECT_TRUE(aud.clean()) << aud.report().summary();
}

TEST(AuditAccounting, EnergyDeltaMismatchFires) {
  SimConfig cfg = audited_cfg(2, AuditLevel::kCheap);
  InvariantAuditor aud(cfg);
  EnergyAccounting acct(10.0);
  acct.record_cycle(5.0);
  aud.check_accounting(0, acct, 5.0);
  ASSERT_TRUE(aud.clean());
  acct.record_cycle(5.0);
  // Seeded fault: the reported per-cycle power disagrees with the
  // accumulator delta (double charging / dropped sample).
  aud.check_accounting(1, acct, 7.0);
  expect_only(aud, AuditClass::kAccounting);
}

TEST(AuditAccounting, AopbDeltaMismatchFires) {
  SimConfig cfg = audited_cfg(2, AuditLevel::kCheap);
  InvariantAuditor aud(cfg);
  EnergyAccounting over(1.0);  // budget 1, power 5 => AoPB grows by 4
  over.record_cycle(5.0);
  aud.check_accounting(0, over, 5.0);
  ASSERT_TRUE(aud.clean());
  EnergyAccounting fresh(1.0);  // swap in an accumulator that "lost" AoPB
  fresh.record_cycle(5.0);
  aud.check_accounting(1, fresh, 5.0);
  // energy delta is 0 vs power 5 AND aopb mismatches; both are accounting.
  expect_only(aud, AuditClass::kAccounting);
}

// --- end-to-end: audited runs are clean and bit-identical -------------------

TEST(AuditEndToEnd, FullAuditSixteenCoreSuiteRunIsClean) {
  const WorkloadProfile& wl = benchmark_suite().front();
  SimConfig cfg = audited_cfg(16, AuditLevel::kFull);
  CmpSimulator sim(cfg, wl);
  const RunResult r = sim.run();  // aborts via PTB_ASSERTF if dirty
  ASSERT_NE(sim.auditor(), nullptr);
  EXPECT_TRUE(sim.auditor()->clean()) << sim.auditor()->report().summary();
  EXPECT_GT(r.audit_checks, 0u);
  EXPECT_GT(r.total_committed, 0u);
}

TEST(AuditEndToEnd, FullAuditCoversClusteredBalancer) {
  SimConfig cfg = audited_cfg(16, AuditLevel::kFull);
  cfg.ptb.cluster_size = 8;
  CmpSimulator sim(cfg, tiny_profile());
  const RunResult r = sim.run();
  ASSERT_NE(sim.auditor(), nullptr);
  EXPECT_TRUE(sim.auditor()->clean()) << sim.auditor()->report().summary();
  EXPECT_GT(r.audit_checks, 0u);
}

TEST(AuditEndToEnd, AuditLevelNeverChangesResults) {
  const WorkloadProfile p = tiny_profile();
  SimConfig off = audited_cfg(4, AuditLevel::kOff);
  SimConfig full = audited_cfg(4, AuditLevel::kFull);
  const RunResult a = CmpSimulator(off, p).run();
  const RunResult b = CmpSimulator(full, p).run();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
  EXPECT_DOUBLE_EQ(a.aopb, b.aopb);
  EXPECT_EQ(a.total_committed, b.total_committed);
  EXPECT_EQ(a.audit_checks, 0u);
  EXPECT_GT(b.audit_checks, 0u);
  EXPECT_EQ(a.machine_fingerprint, b.machine_fingerprint);
}

TEST(AuditEndToEnd, OffLevelConstructsNoAuditor) {
  SimConfig cfg = audited_cfg(2, AuditLevel::kOff);
  CmpSimulator sim(cfg, tiny_profile());
  EXPECT_EQ(sim.auditor(), nullptr);
}

TEST(AuditEndToEnd, DefaultAuditLevelFlowsThroughMakeSimConfig) {
  set_default_audit_level(AuditLevel::kCheap);
  const SimConfig cfg = make_sim_config(4, base_technique());
  set_default_audit_level(AuditLevel::kOff);  // restore for other tests
  EXPECT_EQ(cfg.audit_level, AuditLevel::kCheap);
  EXPECT_EQ(make_sim_config(4, base_technique()).audit_level,
            AuditLevel::kOff);
}

TEST(AuditEndToEnd, NormalizeRejectsMachineMismatch) {
  RunResult base, r;
  base.energy = 100.0;
  base.aopb = 10.0;
  base.cycles = 1000;
  r = base;
  base.machine_fingerprint = 0x1111;
  r.machine_fingerprint = 0x2222;
  EXPECT_DEATH(normalize(base, r), "across machines");
  // Ablations opt into cross-machine comparison explicitly.
  const Normalized n = normalize(base, r, CrossMachine::kAllow);
  EXPECT_DOUBLE_EQ(n.energy_pct, 0.0);
  r.machine_fingerprint = base.machine_fingerprint;
  r.num_cores = base.num_cores + 1;
  EXPECT_DEATH(normalize(base, r), "across workloads");
  // kAllow relaxes only the machine check, never the workload check.
  EXPECT_DEATH(normalize(base, r, CrossMachine::kAllow), "across workloads");
}

}  // namespace
}  // namespace ptb

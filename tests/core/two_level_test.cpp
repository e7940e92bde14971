// The 2-level hybrid controller, and its binding to each technique kind
// (the per-core power enforcer of the cycle loop).
#include "core/two_level.hpp"

#include <gtest/gtest.h>

#include "cpu/core.hpp"
#include "mem/memory_system.hpp"
#include "noc/mesh.hpp"
#include "power/power_model.hpp"
#include "sync/sync_state.hpp"
#include "workloads/program.hpp"

namespace ptb {
namespace {

/// Endless stream of independent ALU ops — just a throttling target.
class EndlessProgram final : public ThreadProgram {
 public:
  FetchStatus next(MicroOp& out) override {
    out = MicroOp{};
    out.pc = 0x1000 + (n_++ % 256) * 4;
    out.cls = OpClass::kIntAlu;
    return FetchStatus::kOp;
  }
  void on_value(const MicroOp&, std::uint64_t) override {}
  bool finished() const override { return false; }

 private:
  std::uint64_t n_ = 0;
};

class TwoLevelTest : public ::testing::Test {
 protected:
  TwoLevelTest()
      : cfg_(make_cfg()), mesh_(cfg_.noc, 1, 1), mem_(cfg_, mesh_),
        sync_(1, 1, 1), energy_(cfg_.power, 1),
        core_(0, cfg_, mem_, sync_, prog_, energy_) {}

  static SimConfig make_cfg() {
    SimConfig c;
    c.num_cores = 1;
    return c;
  }

  SimConfig cfg_;
  Mesh mesh_;
  MemorySystem mem_;
  SyncState sync_;
  BaseEnergyModel energy_;
  EndlessProgram prog_;
  Core core_;
};

TEST_F(TwoLevelTest, MicroarchLevelsEscalateWithOvershoot) {
  TwoLevelController ctrl(cfg_, TechniqueKind::kTwoLevel);
  ctrl.tick(0, 105.0, 100.0, true, 0.0, core_);
  EXPECT_EQ(ctrl.microarch_level(), 1u);
  EXPECT_EQ(core_.fetch_limit(), cfg_.core.fetch_width / 2);
  ctrl.tick(1, 120.0, 100.0, true, 0.0, core_);
  EXPECT_EQ(ctrl.microarch_level(), 2u);
  EXPECT_EQ(core_.fetch_limit(), 1u);
  ctrl.tick(2, 200.0, 100.0, true, 0.0, core_);
  EXPECT_EQ(ctrl.microarch_level(), 3u);
  EXPECT_EQ(core_.fetch_limit(), 0u);  // fetch gated
}

TEST_F(TwoLevelTest, ReleasesWhenUnderBudget) {
  TwoLevelController ctrl(cfg_, TechniqueKind::kTwoLevel);
  ctrl.tick(0, 200.0, 100.0, true, 0.0, core_);
  ASSERT_EQ(core_.fetch_limit(), 0u);
  ctrl.tick(1, 50.0, 100.0, true, 0.0, core_);
  EXPECT_EQ(ctrl.microarch_level(), 0u);
  EXPECT_EQ(core_.fetch_limit(), cfg_.core.fetch_width);
}

TEST_F(TwoLevelTest, NoMicroarchWhenNotEnforcing) {
  TwoLevelController ctrl(cfg_, TechniqueKind::kTwoLevel);
  ctrl.tick(0, 500.0, 100.0, /*enforce=*/false, 0.0, core_);
  EXPECT_EQ(ctrl.microarch_level(), 0u);
  EXPECT_EQ(core_.fetch_limit(), cfg_.core.fetch_width);
}

TEST_F(TwoLevelTest, RelaxThresholdDelaysTrigger) {
  TwoLevelController ctrl(cfg_, TechniqueKind::kTwoLevel);
  // 15% over budget: triggers at relax 0, not at relax 0.2.
  ctrl.tick(0, 115.0, 100.0, true, 0.0, core_);
  EXPECT_GT(ctrl.microarch_level(), 0u);
  ctrl.tick(1, 115.0, 100.0, true, 0.2, core_);
  EXPECT_EQ(ctrl.microarch_level(), 0u);
}

TEST_F(TwoLevelTest, DvfsOnlyVariantNeverTouchesFetch) {
  TwoLevelController ctrl(cfg_, TechniqueKind::kDvfs);
  for (Cycle t = 0; t < 4096; ++t) ctrl.tick(t, 300.0, 100.0, true, 0.0,
                                             core_);
  EXPECT_EQ(core_.fetch_limit(), cfg_.core.fetch_width);
  EXPECT_GT(ctrl.dvfs().mode(), 0u);  // but the DVFS level moved
}

TEST_F(TwoLevelTest, StalledDuringDvfsTransition) {
  TwoLevelController ctrl(cfg_, TechniqueKind::kTwoLevel);
  Cycle t = 0;
  for (std::uint32_t i = 0; i < cfg_.dvfs.window_cycles; ++i)
    ctrl.tick(t++, 300.0, 100.0, true, 0.0, core_);
  EXPECT_TRUE(ctrl.stalled(t));
}

TEST(PowerEnforcer, KindNoneIsInert) {
  SimConfig cfg;
  cfg.num_cores = 1;
  Mesh mesh(cfg.noc, 1, 1);
  MemorySystem mem(cfg, mesh);
  SyncState sync(1, 1, 1);
  BaseEnergyModel energy(cfg.power, 1);
  EndlessProgram prog;
  Core core(0, cfg, mem, sync, prog, energy);
  TwoLevelController enf(cfg, TechniqueKind::kNone);
  for (Cycle t = 0; t < 1024; ++t) enf.tick(t, 1000.0, 10.0, true, 0.0, core);
  EXPECT_DOUBLE_EQ(enf.vdd_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(enf.freq_ratio(), 1.0);
  EXPECT_FALSE(enf.stalled(1024));
  EXPECT_EQ(core.fetch_limit(), cfg.core.fetch_width);
}

TEST(PowerEnforcer, DfsKeepsVoltage) {
  SimConfig cfg;
  cfg.num_cores = 1;
  Mesh mesh(cfg.noc, 1, 1);
  MemorySystem mem(cfg, mesh);
  SyncState sync(1, 1, 1);
  BaseEnergyModel energy(cfg.power, 1);
  EndlessProgram prog;
  Core core(0, cfg, mem, sync, prog, energy);
  TwoLevelController enf(cfg, TechniqueKind::kDfs);
  Cycle t = 0;
  for (int w = 0; w < 50; ++w)
    for (std::uint32_t i = 0; i < cfg.dvfs.window_cycles; ++i)
      enf.tick(t++, 1000.0, 10.0, true, 0.0, core);
  EXPECT_DOUBLE_EQ(enf.vdd_ratio(), 1.0);
  EXPECT_LT(enf.freq_ratio(), 1.0);
}

}  // namespace
}  // namespace ptb

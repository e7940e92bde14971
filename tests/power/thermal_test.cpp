#include "power/thermal.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ptb {
namespace {

ThermalConfig tcfg() { return ThermalConfig{}; }

// The Table 1 model with the time constant set to `steps` fixed-size
// steps, so a test chooses how far one step() moves toward steady state.
ThermalConfig tau_in_steps(double steps) {
  ThermalConfig cfg;
  cfg.tau_cycles = steps * static_cast<double>(ThermalModel::kStepCycles);
  return cfg;
}

TEST(Thermal, StartsAtAmbient) {
  ThermalModel m(tcfg(), 4);
  for (CoreId c = 0; c < 4; ++c)
    EXPECT_DOUBLE_EQ(m.temperature(c), tcfg().ambient_c);
}

TEST(Thermal, ConvergesToSteadyState) {
  const ThermalConfig cfg = tau_in_steps(1.0);
  ThermalModel m(cfg, 1);
  const double power = 100.0;
  // Step for many time constants.
  for (int i = 0; i < 100; ++i) m.step(0, power);
  EXPECT_NEAR(m.temperature(0), cfg.ambient_c + cfg.r_thermal * power, 1e-6);
}

TEST(Thermal, MonotoneRiseUnderConstantPower) {
  ThermalModel m(tau_in_steps(20.0), 1);
  double prev = m.temperature(0);
  for (int i = 0; i < 20; ++i) {
    m.step(0, 80.0);
    EXPECT_GT(m.temperature(0), prev);
    prev = m.temperature(0);
  }
}

TEST(Thermal, CoolsWhenPowerDrops) {
  ThermalModel m(tau_in_steps(2.0), 1);
  for (int i = 0; i < 50; ++i) m.step(0, 100.0);
  const double hot = m.temperature(0);
  m.step(0, 0.0);
  EXPECT_LT(m.temperature(0), hot);
}

TEST(Thermal, ExactExponentialStep) {
  const ThermalConfig cfg = tau_in_steps(1.0);
  ThermalModel m(cfg, 1);
  const double p = 50.0;
  m.step(0, p);  // exactly one time constant
  const double steady = cfg.ambient_c + cfg.r_thermal * p;
  const double expected =
      steady + (cfg.ambient_c - steady) * std::exp(-1.0);
  EXPECT_NEAR(m.temperature(0), expected, 1e-9);
}

TEST(Thermal, StableMaxWithUniformCores) {
  ThermalModel m(tcfg(), 4);
  for (CoreId c = 0; c < 4; ++c) m.step(c, 60.0);
  EXPECT_DOUBLE_EQ(m.max_temperature(), m.temperature(0));
}

TEST(Thermal, HistoryRecordsSamples) {
  ThermalModel m(tcfg(), 1);
  for (int i = 0; i < 10; ++i) m.step(0, 50.0);
  EXPECT_EQ(m.history(0).count(), 10u);
  EXPECT_GT(m.history(0).mean(), tcfg().ambient_c);
}

// A steadier power trace yields a lower temperature std-dev than an
// oscillating one with the same mean — the paper's temperature-stability
// claim for PTB in miniature.
TEST(Thermal, SteadyPowerHasLowerStdDevThanOscillating) {
  ThermalModel steady(tau_in_steps(20.0), 1), osc(tau_in_steps(20.0), 1);
  for (int i = 0; i < 2000; ++i) {
    steady.step(0, 50.0);
    osc.step(0, (i % 20 < 10) ? 0.0 : 100.0);
  }
  EXPECT_LT(steady.history(0).stddev(), osc.history(0).stddev());
}

}  // namespace
}  // namespace ptb

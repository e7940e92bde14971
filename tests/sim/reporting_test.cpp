#include "sim/reporting.hpp"

#include <gtest/gtest.h>

namespace ptb {
namespace {

FigureGrid sample_grid() {
  FigureGrid g;
  g.technique_labels = {"DVFS", "PTB"};
  g.row_labels = {"fft", "ocean"};
  g.grid = {{{1.5, 88.0, 0.2}, {-2.0, 8.0, 1.0}},
            {{0.5, 80.0, 0.0}, {-1.0, 12.0, 2.0}}};
  return g;
}

TEST(FigureGrid, AverageAppendsRow) {
  FigureGrid g = sample_grid();
  g.append_average();
  ASSERT_EQ(g.grid.size(), 3u);
  EXPECT_EQ(g.row_labels.back(), "Avg.");
  EXPECT_NEAR(g.grid.back()[0].energy_pct, 1.0, 1e-12);
  EXPECT_NEAR(g.grid.back()[1].aopb_pct, 10.0, 1e-12);
}

TEST(FigureGridDeath, EmptyGridCannotAverage) {
  FigureGrid g;
  g.technique_labels = {"A"};
  EXPECT_DEATH(g.append_average(), "empty grid");
}

TEST(Reporting, PrintFunctionsDoNotCrash) {
  // Smoke: the renderers must handle a normal grid without aborting.
  FigureGrid g = sample_grid();
  g.append_average();
  const std::string out = render_energy_aopb(g, "Test figure") +
                          render_slowdown(g, "Test figure");
  EXPECT_NE(out.find("Test figure"), std::string::npos);
  EXPECT_NE(out.find("Normalized Energy"), std::string::npos);
  EXPECT_NE(out.find("Normalized AoPB"), std::string::npos);
  EXPECT_NE(out.find("Performance Slowdown"), std::string::npos);
  EXPECT_NE(out.find("fft"), std::string::npos);
  EXPECT_NE(out.find("Avg."), std::string::npos);
}

TEST(ReplicatedResult, AggregatesAcrossSeeds) {
  // Two seeds of a tiny run: stats must have count 2 and finite moments.
  WorkloadProfile p;
  p.name = "rep";
  p.iterations = 1;
  p.ops_per_iteration = 2000;
  p.barrier_per_iter = false;
  TechniqueSpec t{"2l", TechniqueKind::kTwoLevel, false, PtbPolicy::kToAll,
                  0.0};
  BaseRunCache cache;
  const ReplicatedResult r = run_replicated(
      p, 2, t, 2,
      [&cache](const WorkloadProfile& q, const SimConfig& c)
          -> const RunResult& { return cache.get(q, c); });
  EXPECT_EQ(r.energy_pct.count(), 2u);
  EXPECT_EQ(r.aopb_pct.count(), 2u);
  EXPECT_EQ(r.slowdown_pct.count(), 2u);
  EXPECT_GE(r.aopb_pct.min(), 0.0);
}

}  // namespace
}  // namespace ptb

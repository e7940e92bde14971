#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/reporting.hpp"
#include "sim/run_pool.hpp"
#include "workloads/suite.hpp"

namespace ptb {
namespace {

// Two tiny benchmarks and two technique grids over them that share the base
// and 2Level cells (grid A: base, DVFS, 2Level; grid B: base, 2Level,
// PTB+2Level), as (profile, config) cells.
std::vector<std::pair<const WorkloadProfile*, SimConfig>> shared_grid_cells(
    std::size_t grid) {
  static const std::vector<WorkloadProfile> profiles = [] {
    std::vector<WorkloadProfile> v(2);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i].name = "memo" + std::to_string(i);
      v[i].iterations = 1;
      v[i].ops_per_iteration = 1500 + 500 * i;
      v[i].barrier_per_iter = false;
    }
    return v;
  }();
  const std::vector<TechniqueSpec> all = standard_techniques(PtbPolicy::kToAll);
  const std::vector<TechniqueSpec> grids[] = {
      {base_technique(), all[0], all[2]},
      {base_technique(), all[2], all[3]},
  };
  std::vector<std::pair<const WorkloadProfile*, SimConfig>> cells;
  for (const auto& p : profiles) {
    for (const auto& t : grids[grid]) {
      cells.emplace_back(&p, make_sim_config(2, t));
    }
  }
  return cells;
}

template <std::size_t kGrid>
void read_shared_grid(bench::BenchContext& ctx) {
  for (const auto& [p, cfg] : shared_grid_cells(kGrid)) ctx.run(*p, cfg);
}

TEST(Techniques, StandardMatrixShape) {
  const auto t = standard_techniques(PtbPolicy::kToAll);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0].label, "DVFS");
  EXPECT_EQ(t[1].label, "DFS");
  EXPECT_EQ(t[2].label, "2Level");
  EXPECT_EQ(t[3].label, "PTB+2Level");
  EXPECT_TRUE(t[3].ptb);
  EXPECT_FALSE(t[0].ptb);
  EXPECT_EQ(t[0].kind, TechniqueKind::kDvfs);
  EXPECT_EQ(t[1].kind, TechniqueKind::kDfs);
  EXPECT_EQ(t[2].kind, TechniqueKind::kTwoLevel);
  EXPECT_EQ(t[3].kind, TechniqueKind::kTwoLevel);
}

TEST(Techniques, NaiveMatrixHasNoPtb) {
  for (const auto& t : naive_techniques()) EXPECT_FALSE(t.ptb);
}

TEST(MakeSimConfig, AppliesSpec) {
  TechniqueSpec t{"PTB", TechniqueKind::kTwoLevel, true, PtbPolicy::kToOne,
                  0.2};
  const SimConfig cfg = make_sim_config(8, t, 77);
  EXPECT_EQ(cfg.num_cores, 8u);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_EQ(cfg.technique, TechniqueKind::kTwoLevel);
  EXPECT_TRUE(cfg.ptb.enabled);
  EXPECT_EQ(cfg.ptb.policy, PtbPolicy::kToOne);
  EXPECT_DOUBLE_EQ(cfg.ptb.relax_threshold, 0.2);
}

TEST(Normalize, FigureSemantics) {
  RunResult base, r;
  base.energy = 1000.0;
  base.aopb = 200.0;
  base.cycles = 10000;
  r.energy = 970.0;
  r.aopb = 16.0;
  r.cycles = 10300;
  const Normalized n = normalize(base, r);
  EXPECT_NEAR(n.energy_pct, -3.0, 1e-9);
  EXPECT_NEAR(n.aopb_pct, 8.0, 1e-9);
  EXPECT_NEAR(n.slowdown_pct, 3.0, 1e-9);
}

TEST(Normalize, ZeroBaseAopbReportsZero) {
  RunResult base, r;
  base.energy = 100.0;
  base.aopb = 0.0;
  base.cycles = 100;
  r = base;
  EXPECT_DOUBLE_EQ(normalize(base, r).aopb_pct, 0.0);
}

TEST(BaseRunCache, CachesByBenchmarkAndCores) {
  BaseRunCache cache;
  const auto& p = benchmark_by_name("blackscholes");
  const RunResult& a = cache.get(p, 2);
  const RunResult& b = cache.get(p, 2);
  EXPECT_EQ(&a, &b);  // same object: cached
  const RunResult& c = cache.get(p, 4);
  EXPECT_NE(&a, &c);
}

// One memo across figures: two rows whose grids share cells, rendered by
// the figure driver on one pool, simulate each (config_fingerprint,
// benchmark) key once, and every memoized result is the run_one result
// byte for byte. A fresh memo holds nothing, so it simulates again.
TEST(BaseRunCache, SharedGridsSimulateEachKeyOnce) {
  const bench::FigureRow rows[] = {
      {"grid_a", "A", "base, DVFS, 2Level", read_shared_grid<0>},
      {"grid_b", "B", "base, 2Level, PTB+2Level", read_shared_grid<1>},
  };
  RunPool pool(3);
  BaseRunCache memo;
  bench::render_rows(rows, pool, memo);
  EXPECT_EQ(memo.computed(), 8u);  // 4 distinct techniques x 2 benchmarks
  std::vector<std::pair<const WorkloadProfile*, SimConfig>> cells =
      shared_grid_cells(0);
  for (const auto& cell : shared_grid_cells(1)) cells.push_back(cell);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& [p, cfg] = cells[i];
    SCOPED_TRACE(i);
    const RunResult* memoized = memo.find(*p, cfg);
    ASSERT_NE(memoized, nullptr);
    EXPECT_EQ(RunArtifact::from_result(p->name, cfg, *memoized).to_payload(),
              RunArtifact::from_result(p->name, cfg, run_one(*p, cfg))
                  .to_payload());
  }
  BaseRunCache fresh;
  EXPECT_EQ(fresh.find(*cells[0].first, cells[0].second), nullptr);
  fresh.get(*cells[0].first, cells[0].second);
  EXPECT_EQ(fresh.computed(), 1u);
}

TEST(FigureGrid, AverageRow) {
  FigureGrid g;
  g.technique_labels = {"A", "B"};
  g.row_labels = {"x", "y"};
  g.grid = {{{10.0, 20.0, 1.0}, {30.0, 40.0, 2.0}},
            {{20.0, 40.0, 3.0}, {10.0, 20.0, 4.0}}};
  g.append_average();
  ASSERT_EQ(g.row_labels.back(), "Avg.");
  EXPECT_NEAR(g.grid.back()[0].energy_pct, 15.0, 1e-9);
  EXPECT_NEAR(g.grid.back()[0].aopb_pct, 30.0, 1e-9);
  EXPECT_NEAR(g.grid.back()[1].slowdown_pct, 3.0, 1e-9);
}

}  // namespace
}  // namespace ptb

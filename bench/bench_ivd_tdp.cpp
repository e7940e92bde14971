// Section IV.D of the paper: why accuracy matters. Using each technique's
// measured budget-matching error (its suite-average AoPB fraction at 16
// cores), compute how many cores fit in a fixed 100 W TDP when the budget
// is set to 50% per core — the paper's 19 (DVFS) vs 22 (2Level) vs 29
// (PTB) cores example.
#include "bench_util.hpp"

#include <cmath>

#include "common/table.hpp"

using namespace ptb;

void bench::bench_ivd_tdp(BenchContext& ctx) {
  const auto avg = run_suite_averages(
      16, standard_techniques(PtbPolicy::kDynamic), ctx.run_fn());

  // The paper's arithmetic: 16-core, 100 W TDP -> 6.25 W/core; a 50%
  // budget targets 3.125 W/core; a technique with AoPB error e consumes
  // 3.125 * (1 + e) and the core count at 100 W follows.
  constexpr double kTdp = 100.0;
  constexpr double kPerCore = kTdp / 16.0;
  constexpr double kTarget = kPerCore * 0.5;

  Table table({"technique", "AoPB error %", "W per core", "cores @ 100 W"});
  auto add = [&](const std::string& name, double aopb_pct) {
    const double err = aopb_pct / 100.0;
    const double watts = kTarget * (1.0 + err);
    const auto row = table.add_row();
    table.set(row, 0, name);
    table.set(row, 1, aopb_pct, 1);
    table.set(row, 2, watts, 3);
    table.set(row, 3, static_cast<std::int64_t>(std::floor(kTdp / watts)));
  };
  add("ideal (zero error)", 0.0);
  add("DVFS", avg[0].aopb_pct);
  add("DFS", avg[1].aopb_pct);
  add("2Level", avg[2].aopb_pct);
  add("PTB+2Level", avg[3].aopb_pct);
  ctx.show(table, "Section IV.D: accuracy converts into cores under one TDP");
  ctx.say("(The paper's numbers with its errors: DVFS 19, 2Level 22, "
          "PTB 29 cores.)\n");
}

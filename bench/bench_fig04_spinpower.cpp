// Figure 4: power consumed while spinning, normalized to total power, for
// a varying number of cores. The paper reports ~10% on average at 16 cores
// — enough to exploit, not enough on its own to hold a 50% budget.
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_fig04_spinpower(BenchContext& ctx) {
  Table table({"benchmark", "2 cores", "4 cores", "8 cores", "16 cores"});
  const TechniqueSpec none = base_technique();
  double avg[4] = {0, 0, 0, 0};
  for (const auto& profile : benchmark_suite()) {
    const auto row = table.add_row();
    table.set(row, 0, profile.name);
    int col = 1;
    for (std::uint32_t cores : {2u, 4u, 8u, 16u}) {
      const RunResult& r = ctx.run(profile, make_sim_config(cores, none));
      const double pct = 100.0 * r.spin_energy / r.energy;
      table.set(row, col, pct, 1);
      avg[col - 1] += pct;
      ++col;
    }
  }
  const auto row = table.add_row();
  table.set(row, 0, "Avg.");
  const double n = static_cast<double>(benchmark_suite().size());
  for (int c = 0; c < 4; ++c) table.set(row, c + 1, avg[c] / n, 1);
  ctx.show(table, "Figure 4: normalized spinlock power (%)");
}

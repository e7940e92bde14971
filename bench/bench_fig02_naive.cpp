// Figure 2: normalized energy and AoPB for a 16-core CMP with a 50% power
// budget under the NAIVE equal-split policy (DVFS / DFS / 2Level). This is
// the paper's motivation: per-core techniques that work in a single-core
// setting fail to match the budget for parallel workloads.
#include "bench_util.hpp"

using namespace ptb;

void bench::bench_fig02_naive(BenchContext& ctx) {
  FigureGrid grid = run_suite_grid(16, naive_techniques(), ctx.run_fn());
  grid.append_average();
  ctx.show_energy_aopb(grid, "Figure 2 (16 cores, naive split)");
}

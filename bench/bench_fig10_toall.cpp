// Figure 10: per-benchmark normalized energy and AoPB for a 16-core CMP
// with the ToAll PTB token-distribution policy.
#include "bench_util.hpp"

using namespace ptb;

void bench::bench_fig10_toall(BenchContext& ctx) {
  FigureGrid grid = run_suite_grid(
      16, standard_techniques(PtbPolicy::kToAll), ctx.run_fn());
  grid.append_average();
  ctx.show_energy_aopb(grid, "Figure 10 (16 cores, ToAll)");
}

// Figure 12: per-benchmark normalized energy and AoPB for a 16-core CMP
// using the DYNAMIC policy selector (lock-spinning -> ToOne, barrier
// spinning -> ToAll; Section IV.B of the paper).
#include "bench_util.hpp"

using namespace ptb;

void bench::bench_fig12_dynamic(BenchContext& ctx) {
  FigureGrid grid = run_suite_grid(
      16, standard_techniques(PtbPolicy::kDynamic), ctx.run_fn());
  grid.append_average();
  ctx.show_energy_aopb(grid, "Figure 12 (16 cores, dynamic policy)");
}

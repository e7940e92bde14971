// Figure 11: per-benchmark normalized energy and AoPB for a 16-core CMP
// with the ToOne PTB token-distribution policy (everything to the single
// neediest core — best for lock-bound workloads like Unstructured and
// Water-NSQ, whose critical sections serialize the application).
#include "bench_util.hpp"

using namespace ptb;

void bench::bench_fig11_toone(BenchContext& ctx) {
  FigureGrid grid = run_suite_grid(
      16, standard_techniques(PtbPolicy::kToOne), ctx.run_fn());
  grid.append_average();
  ctx.show_energy_aopb(grid, "Figure 11 (16 cores, ToOne)");
}

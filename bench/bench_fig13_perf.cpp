// Figure 13: per-benchmark performance slowdown for a 16-core CMP with the
// dynamic policy selector. The paper's observation: PTB stays within ~2% of
// DVFS on average while matching the budget far more accurately;
// Unstructured is the worst case for the microarchitectural techniques.
#include "bench_util.hpp"

using namespace ptb;

void bench::bench_fig13_perf(BenchContext& ctx) {
  FigureGrid grid = run_suite_grid(
      16, standard_techniques(PtbPolicy::kDynamic), ctx.run_fn());
  grid.append_average();
  ctx.show_slowdown(grid, "Figure 13 (16 cores, dynamic policy)");
}

// Figure 9: suite-average normalized energy and AoPB for 2-16 cores under
// both PTB token-distribution policies (ToOne / ToAll), against DVFS, DFS
// and the naive 2-level hybrid.
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_fig09_scaling(BenchContext& ctx) {
  Table energy({"configuration", "DVFS", "DFS", "2Level", "PTB+2Level"});
  Table aopb({"configuration", "DVFS", "DFS", "2Level", "PTB+2Level"});
  for (std::uint32_t cores : {2u, 4u, 8u, 16u}) {
    // The non-PTB columns do not depend on the policy: run them once.
    const auto naive_avg =
        run_suite_averages(cores, naive_techniques(), ctx.run_fn());
    for (PtbPolicy policy : {PtbPolicy::kToOne, PtbPolicy::kToAll}) {
      const std::vector<TechniqueSpec> ptb_only{
          standard_techniques(policy).back()};
      const auto ptb_avg =
          run_suite_averages(cores, ptb_only, ctx.run_fn());
      const std::string label =
          std::to_string(cores) + "Core_" +
          (policy == PtbPolicy::kToOne ? "ToOne" : "ToAll");
      const auto er = energy.add_row();
      const auto ar = aopb.add_row();
      energy.set(er, 0, label);
      aopb.set(ar, 0, label);
      for (std::size_t i = 0; i < naive_avg.size(); ++i) {
        energy.set(er, i + 1, naive_avg[i].energy_pct, 2);
        aopb.set(ar, i + 1, naive_avg[i].aopb_pct, 2);
      }
      energy.set(er, 4, ptb_avg[0].energy_pct, 2);
      aopb.set(ar, 4, ptb_avg[0].aopb_pct, 2);
    }
  }
  ctx.show(energy, "Figure 9 (left): normalized energy (%)");
  ctx.show(aopb, "Figure 9 (right): normalized AoPB (%)");
}

// Figure 14: trading accuracy for energy efficiency (Section IV.C). The
// "Restricted PTB" column relaxes the trigger threshold by 20%: power-
// saving mechanisms engage only when the (PTB-augmented) local budget is
// exceeded by more than the slack, recovering DVFS-class energy savings
// while staying far more accurate than DVFS.
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_fig14_relaxed(BenchContext& ctx) {
  Table energy({"configuration", "DVFS", "DFS", "2Level", "PTB+2Level",
                "Restricted PTB+2Level"});
  Table aopb({"configuration", "DVFS", "DFS", "2Level", "PTB+2Level",
              "Restricted PTB+2Level"});
  for (std::uint32_t cores : {2u, 4u, 8u, 16u}) {
    // Non-PTB columns are policy-independent: run once per core count.
    const auto naive_avg =
        run_suite_averages(cores, naive_techniques(), ctx.run_fn());
    for (PtbPolicy policy : {PtbPolicy::kToOne, PtbPolicy::kToAll}) {
      const std::vector<TechniqueSpec> ptb_cols{
          {"PTB+2Level", TechniqueKind::kTwoLevel, true, policy, 0.0},
          {"Restricted PTB+2Level", TechniqueKind::kTwoLevel, true, policy,
           0.20},
      };
      const auto ptb_avg =
          run_suite_averages(cores, ptb_cols, ctx.run_fn());
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
      for (std::size_t i = 0; i < ptb_avg.size(); ++i) {
        energy.set(er, i + 4, ptb_avg[i].energy_pct, 2);
        aopb.set(ar, i + 4, ptb_avg[i].aopb_pct, 2);
      }
    }
  }
  ctx.show(energy, "Figure 14 (left): normalized energy (%)");
  ctx.show(aopb, "Figure 14 (right): normalized AoPB (%)");
}

// Extension: the prior-art energy mechanisms of Section II.C — thrifty
// barriers (HPCA'04 [13]) and meeting points (PACT'08 [11]) — against PTB.
// The paper's argument made quantitative: both baselines save energy around
// synchronization but leave the budget-matching error (AoPB) essentially
// untouched, because neither enforces a power constraint.
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_ext_baselines(BenchContext& ctx) {
  const std::vector<TechniqueSpec> techs{
      {"ThriftyBarrier", TechniqueKind::kThriftyBarrier, false,
       PtbPolicy::kToAll, 0.0},
      {"MeetingPoints", TechniqueKind::kMeetingPoints, false,
       PtbPolicy::kToAll, 0.0},
      {"PTB+2Level", TechniqueKind::kTwoLevel, true, PtbPolicy::kDynamic,
       0.0},
  };
  const char* benchmarks[] = {"ocean", "tomcatv", "barnes", "radix",
                              "watersp", "unstructured"};

  Table table({"benchmark", "technique", "energy %", "AoPB %",
               "slowdown %"});
  for (const char* bn : benchmarks) {
    const auto& profile = benchmark_by_name(bn);
    const RunResult& base =
        ctx.run(profile, make_sim_config(16, base_technique()));
    for (const auto& t : techs) {
      const Normalized norm =
          normalize(base, ctx.run(profile, make_sim_config(16, t)));
      const auto row = table.add_row();
      table.set(row, 0, profile.name);
      table.set(row, 1, t.label);
      table.set(row, 2, norm.energy_pct, 2);
      table.set(row, 3, norm.aopb_pct, 2);
      table.set(row, 4, norm.slowdown_pct, 2);
    }
  }
  ctx.show(table,
           "Energy mechanisms do not match budgets (AoPB stays near 100%)");
  ctx.say("Thrifty barriers / meeting points cut synchronization energy but\n"
          "cannot bound instantaneous power — the paper's case for PTB.\n");
}

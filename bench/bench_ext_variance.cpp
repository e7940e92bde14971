// Extension: statistical confidence. The paper reports single-run numbers;
// here the headline comparison (DVFS vs PTB+2Level AoPB at 16 cores) is
// replicated across 5 seeds — different synthetic instruction streams,
// addresses and lock interleavings — with mean +/- standard deviation.
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_ext_variance(BenchContext& ctx) {
  const TechniqueSpec dvfs{"DVFS", TechniqueKind::kDvfs, false,
                           PtbPolicy::kToAll, 0.0};
  const TechniqueSpec ptb{"PTB+2Level", TechniqueKind::kTwoLevel, true,
                          PtbPolicy::kDynamic, 0.0};
  constexpr std::uint32_t kSeeds = 5;
  ctx.report().set_seeds(kSeeds);

  Table table({"benchmark", "technique", "AoPB % mean", "AoPB % std",
               "energy % mean", "slowdown % mean"});
  for (const char* bn : {"fft", "ocean", "barnes", "waternsq",
                         "blackscholes"}) {
    const auto& profile = benchmark_by_name(bn);
    for (const auto& tech : {dvfs, ptb}) {
      const ReplicatedResult r =
          run_replicated(profile, 16, tech, kSeeds, ctx.run_fn());
      const auto row = table.add_row();
      table.set(row, 0, profile.name);
      table.set(row, 1, tech.label);
      table.set(row, 2, r.aopb_pct.mean(), 2);
      table.set(row, 3, r.aopb_pct.stddev(), 2);
      table.set(row, 4, r.energy_pct.mean(), 2);
      table.set(row, 5, r.slowdown_pct.mean(), 2);
    }
  }
  ctx.show(table, "5-seed replication: the AoPB gap is far larger than the "
                  "seed noise");
}

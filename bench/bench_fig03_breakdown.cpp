// Figure 3: execution-time breakdown (lock-acquisition / lock-release /
// barrier / busy) for every benchmark at 2, 4, 8 and 16 cores.
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_fig03_breakdown(BenchContext& ctx) {
  Table table({"benchmark", "cores", "Lock-Acq", "Lock-Rel", "Barrier",
               "Busy"});
  const TechniqueSpec none = base_technique();
  for (const auto& profile : benchmark_suite()) {
    for (std::uint32_t cores : {2u, 4u, 8u, 16u}) {
      const RunResult& r = ctx.run(profile, make_sim_config(cores, none));
      Cycle sums[kNumExecStates] = {};
      Cycle total = 0;
      for (const auto& c : r.cores) {
        for (std::uint32_t s = 0; s < kNumExecStates; ++s) {
          sums[s] += c.state_cycles[s];
          total += c.state_cycles[s];
        }
      }
      const auto row = table.add_row();
      table.set(row, 0, profile.name);
      table.set(row, 1, static_cast<std::int64_t>(cores));
      std::size_t col = 2;
      for (ExecState s : {ExecState::kLockAcq, ExecState::kLockRel,
                          ExecState::kBarrier, ExecState::kBusy}) {
        table.set(row, col++,
                  100.0 * static_cast<double>(sums[static_cast<int>(s)]) /
                      static_cast<double>(total),
                  1);
      }
    }
  }
  ctx.show(table, "Figure 3: time in each execution state (% of core-cycles)");
}

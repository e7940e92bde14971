// Figure 3: execution-time breakdown (lock-acquisition / lock-release /
// barrier / busy) for every benchmark at 2, 4, 8 and 16 cores.
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_fig03_breakdown(BenchContext& ctx) {
  Table table({"benchmark", "cores", "Lock-Acq", "Lock-Rel", "Barrier",
               "Busy"});
  const TechniqueSpec none = base_technique();
  const std::uint32_t core_counts[] = {2u, 4u, 8u, 16u};
  // All (benchmark x cores) runs are independent: fan them out and read
  // the results back in submission order.
  for (const auto& profile : benchmark_suite()) {
    for (std::uint32_t cores : core_counts) {
      ctx.submit(profile, make_sim_config(cores, none));
    }
  }
  const std::vector<RunResult> results = ctx.pool().wait_all();
  std::size_t idx = 0;
  for (const auto& profile : benchmark_suite()) {
    for (std::uint32_t cores : core_counts) {
      const RunResult& r = results[idx++];
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
      const double t = static_cast<double>(total);
      table.set(row, 2, 100.0 * static_cast<double>(
                            sums[static_cast<int>(ExecState::kLockAcq)]) / t,
                1);
      table.set(row, 3, 100.0 * static_cast<double>(
                            sums[static_cast<int>(ExecState::kLockRel)]) / t,
                1);
      table.set(row, 4, 100.0 * static_cast<double>(
                            sums[static_cast<int>(ExecState::kBarrier)]) / t,
                1);
      table.set(row, 5, 100.0 * static_cast<double>(
                            sums[static_cast<int>(ExecState::kBusy)]) / t,
                1);
    }
  }
  ctx.show(table, "Figure 3: time in each execution state (% of core-cycles)");
}

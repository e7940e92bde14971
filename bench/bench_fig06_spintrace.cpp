// Figure 6: per-cycle power behaviour of a core entering a spinning state —
// an initial computation peak, then power drops and stabilizes well under
// the budget (the signature PTB's indirect spin detection keys on).
#include "bench_util.hpp"

#include <algorithm>

#include "common/table.hpp"
#include "sim/cmp.hpp"

using namespace ptb;

void bench::bench_fig06_spintrace(BenchContext& ctx) {
  // Lock-bound benchmark at 8 cores; core 0 spends long stretches spinning.
  // A single traced run — the simulator needs introspection after run(), so
  // this figure stays on the calling thread, outside the run memo.
  SimConfig cfg = make_sim_config(8, base_technique());
  const WorkloadProfile& profile = benchmark_by_name("unstructured");
  CmpSimulator sim(cfg, profile);
  RunOptions opts;
  opts.record_core_traces = true;
  const RunResult r = sim.run(opts);

  const double budget = sim.budgets().local_budget();
  const auto& trace = r.core_power_traces[0];
  ctx.say("core 0, %zu trace samples over %llu cycles; local budget "
          "= %.1f tokens/cycle\n\n",
          trace.size(), static_cast<unsigned long long>(r.cycles),
          budget);

  // Render an ASCII strip chart of a window containing a busy->spin edge:
  // find the steepest sustained drop in the trace.
  const auto& v = trace.values();
  std::size_t edge = 0;
  double best_drop = 0.0;
  const std::size_t w = 16;
  for (std::size_t i = w; i + w < v.size(); ++i) {
    double before = 0.0, after = 0.0;
    for (std::size_t k = 0; k < w; ++k) {
      before += v[i - k - 1];
      after += v[i + k];
    }
    const double drop = (before - after) / static_cast<double>(w);
    if (drop > best_drop) {
      best_drop = drop;
      edge = i;
    }
  }
  const std::size_t lo = edge > 24 ? edge - 24 : 0;
  const std::size_t hi = std::min(v.size(), edge + 40);
  const double vmax = *std::max_element(v.begin() + lo, v.begin() + hi);
  Table window({"cycle", "tokens"});
  ctx.say("%-10s %-9s  power (each # ~ %.1f tokens; | = local budget)\n",
          "cycle", "tokens", vmax / 40.0);
  for (std::size_t i = lo; i < hi; ++i) {
    const int bars = static_cast<int>(40.0 * v[i] / vmax);
    const int budget_col = static_cast<int>(40.0 * budget / vmax);
    ctx.say("%-10.0f %8.1f  ", trace.times()[i], v[i]);
    for (int b = 0; b < 41; ++b) {
      ctx.say("%c", b == budget_col ? '|' : b < bars ? '#' : ' ');
    }
    ctx.say("\n");
    const auto row = window.add_row();
    window.set(row, 0, trace.times()[i], 0);
    window.set(row, 1, v[i], 1);
  }
  ctx.say("\nAfter the initial peak the spinning core stabilizes far "
          "under its budget\n(the paper's Figure 6 signature) — those "
          "are the tokens PTB redistributes.\n");
  ctx.report().set_meta("local_budget", format_double(budget, 1));
  ctx.report().add_table("Figure 6: busy->spin window (cycle, tokens)",
                         window);
}

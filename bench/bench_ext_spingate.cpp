// Extension: the paper's stated future work (Section IV.C) — "higher energy
// savings could be achieved if we use PTB as a spinlock detector and we
// disable the spinning cores to save power". Detected spinners (by power
// pattern alone) are duty-cycle fetch-gated; this bench quantifies the
// extra energy saved on the spin-heavy benchmarks and the performance cost.
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_ext_spingate(BenchContext& ctx) {
  const TechniqueSpec ptb{"PTB", TechniqueKind::kTwoLevel, true,
                          PtbPolicy::kToAll, 0.0};
  const char* benchmarks[] = {"unstructured", "fluidanimate", "waternsq",
                              "raytrace", "ocean", "barnes", "fft",
                              "blackscholes"};
  Table table({"benchmark", "PTB energy %", "+gate energy %",
               "PTB slowdown %", "+gate slowdown %", "gated Mcycles"});
  double e0 = 0, e1 = 0;
  int n = 0;
  // Per benchmark: base, plain PTB, and gated PTB.
  for (const char* bn : benchmarks) {
    const auto& profile = benchmark_by_name(bn);
    SimConfig gated_cfg = make_sim_config(16, ptb);
    gated_cfg.ptb.gate_spinners = true;
    const RunResult& base =
        ctx.run(profile, make_sim_config(16, base_technique()));
    const RunResult& plain = ctx.run(profile, make_sim_config(16, ptb));
    const RunResult& gated = ctx.run(profile, gated_cfg);
    const Normalized np = normalize(base, plain);
    const Normalized ng = normalize(base, gated);
    const auto row = table.add_row();
    table.set(row, 0, profile.name);
    table.set(row, 1, np.energy_pct, 2);
    table.set(row, 2, ng.energy_pct, 2);
    table.set(row, 3, np.slowdown_pct, 2);
    table.set(row, 4, ng.slowdown_pct, 2);
    table.set(row, 5,
              static_cast<double>(gated.spin_gated_cycles) / 1e6, 2);
    e0 += np.energy_pct;
    e1 += ng.energy_pct;
    ++n;
  }
  ctx.show(table, "PTB vs PTB + power-pattern spinner gating (16 cores)");
  ctx.say("Average energy: PTB %.2f%% -> with gating %.2f%%\n",
          e0 / n, e1 / n);
}

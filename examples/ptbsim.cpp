// ptbsim — command-line driver over the full library: run any benchmark on
// any configuration and print (or CSV-dump) the metrics. The kind of tool a
// downstream user scripts sweeps with.
//
//   ptbsim [options]
//     --bench NAME        benchmark (default fft; "all" runs the suite)
//     --cores N           number of cores (default 16)
//     --technique T       none | dvfs | dfs | two_level | thrifty_barrier |
//                         meeting_points               (default two_level)
//     --ptb               enable Power Token Balancing
//     --policy P          to_all | to_one | dynamic    (default to_all)
//     --relax F           relaxed-accuracy threshold in 0..1, e.g. 0.2
//     --budget F          budget fraction of peak, 0.01..1 (default 0.5)
//     --gate-spinners     duty-cycle-gate detected spinners
//     --seed N            experiment seed
//     --trace DIR         dump per-cycle power trace CSV + summary to DIR
//     --csv               CSV output instead of a table
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "sim/cmp.hpp"
#include "sim/experiment.hpp"
#include "sim/trace_export.hpp"
#include "workloads/suite.hpp"

using namespace ptb;

int main(int argc, char** argv) {
  std::string bench = "fft";
  std::uint32_t cores = 16;
  TechniqueSpec tech{"cli", TechniqueKind::kTwoLevel, false,
                     PtbPolicy::kToAll, 0.0};
  double budget = 0.5;
  std::uint64_t seed = 1;
  bool csv = false;
  bool gate = false;
  std::string trace_dir;

  const FlagParse parsed = parse_flags(
      {{"--bench", "", "NAME", {}, flag_string(bench)},
       {"--cores", "", "N", {}, flag_uint(cores, 1, 32)},
       {"--technique", "", "T", {}, flag_enum(tech.kind)},
       {"--ptb", "", "", {}, flag_switch(tech.ptb)},
       {"--policy", "", "P", {}, flag_enum(tech.policy)},
       {"--relax", "", "F", {}, flag_real(tech.relax, 0.0, 1.0)},
       {"--budget", "", "F", {}, flag_real(budget, 0.01, 1.0)},
       {"--seed", "", "N", {},
        flag_uint(seed, 0, std::numeric_limits<std::uint64_t>::max())},
       {"--trace", "", "DIR", {}, flag_string(trace_dir)},
       {"--csv", "", "", {}, flag_switch(csv)},
       {"--gate-spinners", "", "", {}, flag_switch(gate)}},
      argc, argv, 0);
  if (!parsed.error.empty()) {
    std::fprintf(stderr,
                 "ptbsim: %s\n(see the header of examples/ptbsim.cpp for "
                 "options)\n",
                 parsed.error.c_str());
    return 2;
  }

  std::vector<std::string> benches;
  if (bench == "all") {
    benches = benchmark_names();
  } else {
    benches.push_back(bench);
  }

  Table table({"benchmark", "cycles", "mean power", "budget", "energy %",
               "AoPB %", "slowdown %"});
  BaseRunCache cache;
  for (const auto& name : benches) {
    const WorkloadProfile& profile = benchmark_by_name(name);
    SimConfig cfg = make_sim_config(cores, tech, seed);
    cfg.budget_fraction = budget;
    cfg.ptb.gate_spinners = gate;
    SimConfig base_cfg = make_sim_config(
        cores, TechniqueSpec{"none", TechniqueKind::kNone, false,
                             PtbPolicy::kToAll, 0.0},
        seed);
    base_cfg.budget_fraction = budget;
    const RunResult base = run_one(profile, base_cfg);
    RunOptions opts;
    opts.record_cmp_trace = !trace_dir.empty();
    opts.record_core_traces = !trace_dir.empty();
    CmpSimulator sim(cfg, profile);
    const RunResult r = sim.run(opts);
    if (!trace_dir.empty() && !export_run(r, trace_dir)) {
      std::fprintf(stderr, "ptbsim: cannot write traces to %s\n",
                   trace_dir.c_str());
      return 1;
    }
    const Normalized norm = normalize(base, r);
    const auto row = table.add_row();
    table.set(row, 0, name);
    table.set(row, 1, static_cast<std::int64_t>(r.cycles));
    table.set(row, 2, r.power.mean(), 1);
    table.set(row, 3, r.budget, 1);
    table.set(row, 4, norm.energy_pct, 2);
    table.set(row, 5, norm.aopb_pct, 2);
    table.set(row, 6, norm.slowdown_pct, 2);
  }
  if (csv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    table.print("ptbsim results (vs no-control base case)");
  }
  return 0;
}

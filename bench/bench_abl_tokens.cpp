// Ablations of PTB's design constants (DESIGN.md "design choices"):
//   1. token-wire width (2/4/8 bits; paper uses 4 wires each way),
//   2. balancer round-trip latency (3/5/10 cycles per the paper's Xilinx
//      estimates, plus the pessimistic 10-cycle and a 20-cycle stress),
//   3. k-means group count (paper: 8 groups -> <1% accounting error),
//   4. PTHT size.
#include "bench_util.hpp"

#include <initializer_list>

#include "common/table.hpp"
#include "power/power_model.hpp"

using namespace ptb;

namespace {

double aopb_pct(const RunResult& base, const RunResult& r) {
  return base.aopb > 0 ? 100.0 * r.aopb / base.aopb : 0.0;
}

}  // namespace

void bench::bench_abl_tokens(BenchContext& ctx) {
  const auto& fft = benchmark_by_name("fft");
  const auto& unstructured = benchmark_by_name("unstructured");
  const auto& ocean = benchmark_by_name("ocean");
  const WorkloadProfile* profiles[] = {&fft, &ocean, &unstructured};

  const TechniqueSpec ptb{"PTB", TechniqueKind::kTwoLevel, true,
                          PtbPolicy::kToAll, 0.0};
  const SimConfig base_cfg = make_sim_config(8, base_technique());
  // Ablations 1 and 2 sweep one token-wire knob over the three profiles.
  const auto sweep_wire = [&](const char* knob_name,
                              std::uint32_t PtbConfig::*knob,
                              std::initializer_list<std::uint32_t> values,
                              const char* title) {
    Table t({knob_name, "fft AoPB %", "ocean AoPB %", "unstr AoPB %"});
    SimConfig cfg = make_sim_config(8, ptb);
    for (std::uint32_t v : values) {
      const auto row = t.add_row();
      t.set(row, 0, static_cast<std::int64_t>(v));
      cfg.ptb.*knob = v;
      for (std::size_t c = 0; c < 3; ++c) {
        const WorkloadProfile& p = *profiles[c];
        t.set(row, c + 1, aopb_pct(ctx.run(p, base_cfg), ctx.run(p, cfg)), 2);
      }
    }
    ctx.show(t, title);
  };
  sweep_wire("wire bits", &PtbConfig::token_wire_bits, {2u, 4u, 8u},
             "Ablation 1: token-wire width (8 cores; paper uses 4 bits)");
  sweep_wire("wire latency", &PtbConfig::wire_latency_override,
             {3u, 5u, 10u, 20u},
             "Ablation 2: balancer round-trip latency (cycles)");
  {
    // Analytic (no simulation): stays on the calling thread.
    Table t({"k-means groups", "aggregate error %", "per-instr |error| %"});
    for (std::uint32_t k : {2u, 4u, 8u, 16u, 32u}) {
      PowerConfig pcfg;
      pcfg.kmeans_groups = k;
      BaseEnergyModel m(pcfg, 1);
      const auto row = t.add_row();
      t.set(row, 0, static_cast<std::int64_t>(k));
      t.set(row, 1, 100.0 * m.grouping_error(), 4);
      t.set(row, 2, 100.0 * m.grouping_abs_error(), 3);
    }
    ctx.show(t, "Ablation 3: instruction grouping (paper: 8 groups, <1% "
                "error)");
  }
  {
    Table t({"PTHT entries", "fft AoPB %", "fft energy %"});
    for (std::uint32_t entries : {512u, 2048u, 8192u}) {
      SimConfig cfg = make_sim_config(8, ptb);
      cfg.power.ptht_entries = entries;
      // Cross-machine on purpose: the sweep varies the machine's PTHT
      // capacity and compares each variant against the stock-machine base.
      const Normalized n = normalize(ctx.run(fft, base_cfg), ctx.run(fft, cfg),
                                     CrossMachine::kAllow);
      const auto row = t.add_row();
      t.set(row, 0, static_cast<std::int64_t>(entries));
      t.set(row, 1, n.aopb_pct, 2);
      t.set(row, 2, n.energy_pct, 2);
    }
    ctx.show(t, "Ablation 4: PTHT capacity (paper: 8K entries)");
  }
}

// Substrate ablations: how much do the memory-system modelling choices
// matter to the paper's results?
//   1. MOESI (Table 1) vs MESI coherence,
//   2. flat 300-cycle DRAM (Table 1) vs the banked row-buffer model,
//   3. functional warmup on/off (cold-start sensitivity).
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_abl_substrate(BenchContext& ctx) {
  const TechniqueSpec none = base_technique();
  const TechniqueSpec ptb{"PTB", TechniqueKind::kTwoLevel, true,
                          PtbPolicy::kToAll, 0.0};

  {
    Table t({"benchmark", "variant", "base cycles", "fwd/1k-ops", "wb/1k-ops",
             "PTB AoPB %"});
    for (const char* bn : {"fft", "radix", "waternsq"}) {
      const auto& profile = benchmark_by_name(bn);
      for (auto proto :
           {CoherenceProtocol::kMoesi, CoherenceProtocol::kMesi}) {
        SimConfig base_cfg = make_sim_config(8, none);
        SimConfig ptb_cfg = make_sim_config(8, ptb);
        base_cfg.l2.protocol = proto;
        ptb_cfg.l2.protocol = proto;
        const RunResult& base = ctx.run(profile, base_cfg);
        const RunResult& r = ctx.run(profile, ptb_cfg);
        const double kops = static_cast<double>(base.total_committed) / 1000;
        const auto row = t.add_row();
        t.set(row, 0, profile.name);
        t.set(row, 1, proto == CoherenceProtocol::kMoesi ? "MOESI" : "MESI");
        t.set(row, 2, static_cast<std::int64_t>(base.cycles));
        t.set(row, 3, static_cast<double>(base.owner_forwards) / kops, 2);
        t.set(row, 4, static_cast<double>(base.writebacks) / kops, 2);
        t.set(row, 5, base.aopb > 0 ? 100.0 * r.aopb / base.aopb : 0.0, 2);
      }
    }
    ctx.show(t, "Ablation A: coherence protocol (PTB results are robust)");
  }
  {
    Table t({"benchmark", "DRAM model", "base cycles", "row hit %",
             "PTB AoPB %"});
    for (const char* bn : {"fft", "radix"}) {
      const auto& profile = benchmark_by_name(bn);
      for (bool banked : {false, true}) {
        SimConfig base_cfg = make_sim_config(8, none);
        SimConfig ptb_cfg = make_sim_config(8, ptb);
        base_cfg.mem.banked = banked;
        base_cfg.functional_warmup = false;  // cold misses exercise DRAM
        ptb_cfg.mem.banked = banked;
        const RunResult& base = ctx.run(profile, base_cfg);
        const RunResult& r = ctx.run(profile, ptb_cfg);
        const double hits =
            base.dram_accesses
                ? 100.0 * static_cast<double>(base.dram_row_hits) /
                      static_cast<double>(base.dram_accesses)
                : 0.0;
        const auto row = t.add_row();
        t.set(row, 0, profile.name);
        t.set(row, 1, banked ? "banked row-buffer" : "flat 300 (Table 1)");
        t.set(row, 2, static_cast<std::int64_t>(base.cycles));
        t.set(row, 3, hits, 1);
        t.set(row, 4, base.aopb > 0 ? 100.0 * r.aopb / base.aopb : 0.0, 2);
      }
    }
    ctx.show(t, "Ablation B: DRAM model (cold caches)");
  }
  {
    Table t({"benchmark", "warmup", "base cycles", "energy (M tokens)"});
    for (const char* bn : {"fft", "blackscholes"}) {
      const auto& profile = benchmark_by_name(bn);
      for (bool warm : {true, false}) {
        SimConfig cfg = make_sim_config(8, none);
        cfg.functional_warmup = warm;
        const RunResult& r = ctx.run(profile, cfg);
        const auto row = t.add_row();
        t.set(row, 0, profile.name);
        t.set(row, 1, warm ? "functional" : "cold");
        t.set(row, 2, static_cast<std::int64_t>(r.cycles));
        t.set(row, 3, r.energy / 1e6, 2);
      }
    }
    ctx.show(t, "Ablation C: functional warmup vs cold start");
  }
}

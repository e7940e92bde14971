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
    // Base runs need post-run introspection of the directory, so the task
    // builds the simulator itself, outside the run memo, and stashes the
    // counters in its own slot (one writer per slot: no synchronization
    // needed).
    struct DirStats {
      std::uint64_t owner_forwards = 0;
      std::uint64_t writebacks = 0;
    };
    const char* benchmarks[] = {"fft", "radix", "waternsq"};
    const CoherenceProtocol protos[] = {CoherenceProtocol::kMoesi,
                                        CoherenceProtocol::kMesi};
    std::vector<DirStats> stats(3 * 2);
    std::size_t slot = 0;
    for (const char* bn : benchmarks) {
      const auto& profile = benchmark_by_name(bn);
      for (auto proto : protos) {
        SimConfig base_cfg = make_sim_config(8, none);
        SimConfig ptb_cfg = make_sim_config(8, ptb);
        base_cfg.l2.protocol = proto;
        ptb_cfg.l2.protocol = proto;
        DirStats* out = &stats[slot++];
        ctx.pool().submit([&profile, base_cfg, out] {
          CmpSimulator sim(base_cfg, profile);
          RunResult base = sim.run();
          out->owner_forwards = sim.memory().directory().owner_forwards;
          out->writebacks = sim.memory().directory().writebacks;
          return base;
        });
        ctx.submit(profile, ptb_cfg);
      }
    }
    const auto results = ctx.pool().wait_all();

    Table t({"benchmark", "variant", "base cycles", "fwd/1k-ops", "wb/1k-ops",
             "PTB AoPB %"});
    std::size_t idx = 0;
    slot = 0;
    for (const char* bn : benchmarks) {
      const auto& profile = benchmark_by_name(bn);
      for (auto proto : protos) {
        const RunResult& base = results[idx++];
        const RunResult& r = results[idx++];
        const DirStats& dir = stats[slot++];
        const double kops = static_cast<double>(base.total_committed) / 1000;
        const auto row = t.add_row();
        t.set(row, 0, profile.name);
        t.set(row, 1, proto == CoherenceProtocol::kMoesi ? "MOESI" : "MESI");
        t.set(row, 2, static_cast<std::int64_t>(base.cycles));
        t.set(row, 3, static_cast<double>(dir.owner_forwards) / kops, 2);
        t.set(row, 4, static_cast<double>(dir.writebacks) / kops, 2);
        t.set(row, 5, base.aopb > 0 ? 100.0 * r.aopb / base.aopb : 0.0, 2);
      }
    }
    ctx.show(t, "Ablation A: coherence protocol (PTB results are robust)");
  }
  {
    struct DramStats {
      std::uint64_t accesses = 0;
      std::uint64_t row_hits = 0;
    };
    const char* benchmarks[] = {"fft", "radix"};
    const bool banked_opts[] = {false, true};
    std::vector<DramStats> stats(2 * 2);
    std::size_t slot = 0;
    for (const char* bn : benchmarks) {
      const auto& profile = benchmark_by_name(bn);
      for (bool banked : banked_opts) {
        SimConfig base_cfg = make_sim_config(8, none);
        SimConfig ptb_cfg = make_sim_config(8, ptb);
        base_cfg.mem.banked = banked;
        base_cfg.functional_warmup = false;  // cold misses exercise DRAM
        ptb_cfg.mem.banked = banked;
        DramStats* out = &stats[slot++];
        ctx.pool().submit([&profile, base_cfg, out] {
          CmpSimulator sim(base_cfg, profile);
          RunResult base = sim.run();
          const auto& dram = sim.memory().directory().dram();
          out->accesses = dram.accesses;
          out->row_hits = dram.row_hits;
          return base;
        });
        ctx.submit(profile, ptb_cfg);
      }
    }
    const auto results = ctx.pool().wait_all();

    Table t({"benchmark", "DRAM model", "base cycles", "row hit %",
             "PTB AoPB %"});
    std::size_t idx = 0;
    slot = 0;
    for (const char* bn : benchmarks) {
      const auto& profile = benchmark_by_name(bn);
      for (bool banked : banked_opts) {
        const RunResult& base = results[idx++];
        const RunResult& r = results[idx++];
        const DramStats& dram = stats[slot++];
        const double hits =
            dram.accesses ? 100.0 * static_cast<double>(dram.row_hits) /
                                static_cast<double>(dram.accesses)
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
    const char* benchmarks[] = {"fft", "blackscholes"};
    const bool warm_opts[] = {true, false};
    for (const char* bn : benchmarks) {
      const auto& profile = benchmark_by_name(bn);
      for (bool warm : warm_opts) {
        SimConfig cfg = make_sim_config(8, none);
        cfg.functional_warmup = warm;
        ctx.submit(profile, cfg);
      }
    }
    const auto results = ctx.pool().wait_all();

    Table t({"benchmark", "warmup", "base cycles", "energy (M tokens)"});
    std::size_t idx = 0;
    for (const char* bn : benchmarks) {
      const auto& profile = benchmark_by_name(bn);
      for (bool warm : warm_opts) {
        const RunResult& r = results[idx++];
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

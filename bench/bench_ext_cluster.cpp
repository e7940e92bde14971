// Extension: clustered PTB scalability (Section III.E.2). At 32 cores a
// monolithic balancer needs long wires (extrapolated ~14-cycle round trip);
// the paper proposes replicating per-8/16-core clusters instead, arguing a
// group that size already carries enough slack. This bench quantifies it.
#include "bench_util.hpp"

#include "common/table.hpp"

using namespace ptb;

void bench::bench_ext_cluster(BenchContext& ctx) {
  const TechniqueSpec ptb{"PTB", TechniqueKind::kTwoLevel, true,
                          PtbPolicy::kToAll, 0.0};
  struct Variant {
    const char* label;
    std::uint32_t cluster;
  };
  const Variant variants[]{
      {"monolithic (14-cyc wires)", 0},
      {"2 clusters of 16", 16},
      {"4 clusters of 8", 8},
  };
  const char* benchmarks[] = {"fft", "ocean", "barnes", "waternsq"};

  Table table({"benchmark", "variant", "energy %", "AoPB %", "slowdown %",
               "tokens granted (M)"});
  for (const char* bn : benchmarks) {
    const auto& profile = benchmark_by_name(bn);
    const RunResult& base =
        ctx.run(profile, make_sim_config(32, base_technique()));
    for (const auto& v : variants) {
      SimConfig cfg = make_sim_config(32, ptb);
      cfg.ptb.cluster_size = v.cluster;
      const RunResult& r = ctx.run(profile, cfg);
      const Normalized norm = normalize(base, r);
      const auto row = table.add_row();
      table.set(row, 0, profile.name);
      table.set(row, 1, v.label);
      table.set(row, 2, norm.energy_pct, 2);
      table.set(row, 3, norm.aopb_pct, 2);
      table.set(row, 4, norm.slowdown_pct, 2);
      table.set(row, 5, r.tokens_granted / 1e6, 2);
    }
  }
  ctx.show(table, "32-core CMP, 50% budget");
  ctx.say("Clusters keep the short wire latency while retaining most of\n"
          "the balancing benefit — the paper's >16-core scaling story.\n");
}

// Google-benchmark microbenchmarks of the simulator substrates: simulation
// throughput, PTHT access, k-means grouping, mesh routing, balancer cycle.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/balancer.hpp"
#include "mem/memory_system.hpp"
#include "noc/mesh.hpp"
#include "power/kmeans.hpp"
#include "power/ptht.hpp"
#include "sim/experiment.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace ptb;

void BM_PthtLookup(benchmark::State& state) {
  Ptht t(8192);
  for (Pc pc = 0; pc < 8192; ++pc) t.update(pc * 4, 12.5);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(rng.next_below(8192) * 4, 10.0));
  }
}
BENCHMARK(BM_PthtLookup);

void BM_PthtUpdate(benchmark::State& state) {
  Ptht t(8192);
  Rng rng(2);
  for (auto _ : state) {
    t.update(rng.next_below(8192) * 4, 12.5);
  }
  benchmark::DoNotOptimize(t.lookups);
}
BENCHMARK(BM_PthtUpdate);

void BM_KMeans8Groups(benchmark::State& state) {
  std::vector<double> samples;
  Rng data(3);
  for (int i = 0; i < 4608; ++i) samples.push_back(data.next_double() * 100);
  for (auto _ : state) {
    Rng rng(4);
    benchmark::DoNotOptimize(kmeans_1d(samples, 8, 64, rng));
  }
}
BENCHMARK(BM_KMeans8Groups);

void BM_MeshRoute(benchmark::State& state) {
  NocConfig cfg;
  Mesh mesh(cfg, 4, 4);
  Rng rng(5);
  Cycle now = 0;
  for (auto _ : state) {
    const auto from = static_cast<std::uint32_t>(rng.next_below(16));
    const auto to = static_cast<std::uint32_t>(rng.next_below(16));
    benchmark::DoNotOptimize(mesh.route(from, to, 72, now));
    now += 4;
  }
}
BENCHMARK(BM_MeshRoute);

void BM_BalancerCycle(benchmark::State& state) {
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  PtbConfig cfg;
  cfg.enabled = true;
  PtbLoadBalancer b(cfg, cores, 100.0);
  Rng rng(6);
  std::vector<double> power(cores), eff;
  for (auto& p : power) p = rng.next_double() * 200.0;
  Cycle now = 0;
  for (auto _ : state) {
    b.cycle(now++, power, true, PtbPolicy::kToAll, eff);
  }
  state.SetItemsProcessed(state.iterations() * cores);
}
BENCHMARK(BM_BalancerCycle)->Arg(4)->Arg(16);

void BM_MemoryAccessL1Hit(benchmark::State& state) {
  SimConfig cfg;
  cfg.num_cores = 4;
  Mesh mesh(cfg.noc, 2, 2);
  MemorySystem mem(cfg, mesh);
  mem.access(0, MemAccessType::kLoad, 0x1000, 0);
  Cycle now = 10000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem.access(0, MemAccessType::kLoad, 0x1000, now));
    ++now;
  }
}
BENCHMARK(BM_MemoryAccessL1Hit);

void BM_SimulatorThroughput(benchmark::State& state) {
  // Whole-CMP throughput in simulated core-cycles per second.
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  const auto& profile = benchmark_by_name("blackscholes");
  TechniqueSpec none{"none", TechniqueKind::kNone, false, PtbPolicy::kToAll,
                     0.0};
  std::uint64_t core_cycles = 0;
  for (auto _ : state) {
    const RunResult r = run_one(profile, make_sim_config(cores, none));
    core_cycles += r.cycles * cores;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(core_cycles));
}
BENCHMARK(BM_SimulatorThroughput)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorWithPtb(benchmark::State& state) {
  const auto& profile = benchmark_by_name("blackscholes");
  TechniqueSpec ptb{"ptb", TechniqueKind::kTwoLevel, true, PtbPolicy::kToAll,
                    0.0};
  std::uint64_t core_cycles = 0;
  for (auto _ : state) {
    const RunResult r = run_one(profile, make_sim_config(8, ptb));
    core_cycles += r.cycles * 8;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(core_cycles));
}
BENCHMARK(BM_SimulatorWithPtb)->Unit(benchmark::kMillisecond);

void BM_SimulatorTracing(benchmark::State& state) {
  // Event-tracing overhead on the paper's headline configuration:
  // arg 0 = tracing off, 1 = token category only, 2 = all categories.
  const auto& profile = benchmark_by_name("fft");
  TechniqueSpec dyn{"dyn", TechniqueKind::kTwoLevel, true,
                    PtbPolicy::kDynamic, 0.0};
  RunOptions opts;
  if (state.range(0) == 1)
    opts.trace_categories = trace_category_bit(TraceCategory::kToken);
  if (state.range(0) == 2) opts.trace_categories = kTraceAll;
  std::uint64_t core_cycles = 0;
  for (auto _ : state) {
    const RunResult r = run_one(profile, make_sim_config(16, dyn), opts);
    core_cycles += r.cycles * 16;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(core_cycles));
}
BENCHMARK(BM_SimulatorTracing)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorStats(benchmark::State& state) {
  // Stats-registry overhead on the paper's headline configuration:
  // arg 0 = stats off, 1 = registration on but no sampling (the
  // acceptance budget: <= 2% over arg 0), 2 = sampling every 4096 cycles.
  const auto& profile = benchmark_by_name("fft");
  TechniqueSpec dyn{"dyn", TechniqueKind::kTwoLevel, true,
                    PtbPolicy::kDynamic, 0.0};
  RunOptions opts;
  if (state.range(0) == 1) opts.stats = true;
  if (state.range(0) == 2) opts.stats_sample_every = 4096;
  std::uint64_t core_cycles = 0;
  for (auto _ : state) {
    const RunResult r = run_one(profile, make_sim_config(16, dyn), opts);
    core_cycles += r.cycles * 16;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(core_cycles));
}
BENCHMARK(BM_SimulatorStats)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Accept the shared bench CLI (--jobs / --json) so drivers can treat every
// bench binary uniformly: the microbenchmarks are single-process timing
// loops, so --jobs is accepted and ignored, and --json maps onto
// google-benchmark's native JSON reporter.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.emplace_back(argc > 0 ? argv[0] : "bench_micro");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" || arg == "-j") {
      ++i;  // value consumed and ignored (timing loops are serial)
    } else if (arg.rfind("--jobs=", 0) == 0) {
      // ignored
    } else if (arg == "--json" && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[++i]);
      args.emplace_back("--benchmark_out_format=json");
    } else if (arg.rfind("--json=", 0) == 0) {
      args.push_back("--benchmark_out=" + arg.substr(7));
      args.emplace_back("--benchmark_out_format=json");
    } else {
      args.push_back(arg);
    }
  }
  std::vector<char*> cargs;
  for (auto& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

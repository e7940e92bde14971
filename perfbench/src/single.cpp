// `single`: the reference run (fft, PTB+2Level under the dynamic selector,
// 16 cores) repeated back to back on one thread, each repetition built
// fresh. Nearly all of its time is the cycle loop, so it is the workload
// that sees the cpu/mem/noc/power/core/dvfs/sync layers with no pool and no
// service in the way. Its traced run reads the simulator's own stats
// registry (RunOptions::stats) for the per-layer numbers.
#include <cstdio>
#include <string>

#include "perfbench.hpp"
#include "sim/cmp.hpp"
#include "sim/trace_export.hpp"
#include "stats/dump.hpp"

namespace perfbench {
namespace {

constexpr int kRepsPerPass = 10;
constexpr int kProbePairs = 5;
constexpr ptb::Cycle kGoldenSampleEvery = 4096;

const char* const kMovesRun = "op_p50_ms, sim_mcps @ single; sim_mcps @ sweep";
const char* const kMovesModel =
    "sim_mcps @ single/sweep (only when the model changes)";

struct Rep {
  double ctor_ms = 0.0;
  double run_ms = 0.0;
  ptb::RunResult result;
};

Rep timed_rep(const ptb::SimConfig& cfg, const ptb::RunOptions& opts) {
  Rep rep;
  const auto t0 = Clock::now();
  ptb::CmpSimulator sim(cfg, reference_profile());
  const auto t1 = Clock::now();
  rep.result = sim.run(opts);
  rep.ctor_ms = ms_between(t0, t1);
  rep.run_ms = ms_since(t1);
  return rep;
}

// Sum of every scalar whose name is `prefix` + <anything> + `suffix`.
double sum_stats(const ptb::StatsDump& d, const std::string& prefix,
                 const std::string& suffix) {
  double total = 0.0;
  for (const auto& s : d.scalars) {
    if (s.name.size() >= prefix.size() + suffix.size() &&
        s.name.compare(0, prefix.size(), prefix) == 0 &&
        s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      total += s.integral ? static_cast<double>(s.u64) : s.value;
    }
  }
  return total;
}

double stat(const ptb::StatsDump& d, const char* name) {
  const ptb::StatsDump::Scalar* s = d.find(name);
  if (s == nullptr) return 0.0;
  return s->integral ? static_cast<double>(s->u64) : s->value;
}

std::string trim_right(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ' ||
                        s.back() == '\r')) {
    s.pop_back();
  }
  return s;
}

// The deterministic check run: the bench binaries' --stats reference run
// (sampled every 4096 cycles, volatile gauges stripped). At seed 1 its
// dump must equal results/stats_fig10.json byte for byte. Returns the
// run's summary, which every measured repetition must reproduce.
std::string check_reference(const Options& o, Report& r) {
  ptb::RunOptions opts;
  opts.stats = true;
  opts.stats_sample_every = kGoldenSampleEvery;
  const ptb::RunResult res =
      ptb::run_one(reference_profile(), reference_config(o.seed), opts);
  if (res.hit_max_cycles) r.fail("single: reference run hit max_cycles");
  if (o.seed == 1) {
    std::string golden;
    const std::string path = o.root + "/results/stats_fig10.json";
    if (!read_file(path, golden)) {
      r.fail("single: cannot read " + path);
    } else if (!res.stats ||
               trim_right(res.stats->to_json(false)) != trim_right(golden)) {
      r.fail("single: stats dump differs from results/stats_fig10.json");
    }
  }
  return ptb::run_summary_kv(res);
}

void report_layers(const std::vector<Rep>& plain, const std::vector<Rep>& traced,
                   const char* source, Report& r) {
  std::vector<double> ctor, run, total_plain, total_traced;
  std::vector<double> tick, merge, control, account, attributed;
  for (const Rep& p : plain) total_plain.push_back(p.ctor_ms + p.run_ms);
  for (const Rep& t : traced) {
    ctor.push_back(t.ctor_ms);
    run.push_back(t.run_ms);
    total_traced.push_back(t.ctor_ms + t.run_ms);
    const ptb::StatsDump& d = *t.result.stats;
    const double run_s = t.run_ms / 1000.0;
    const double parts[4] = {stat(d, "sim.self.tick_seconds"),
                             stat(d, "sim.self.power_seconds"),
                             stat(d, "sim.self.control_seconds"),
                             stat(d, "sim.self.account_seconds")};
    tick.push_back(parts[0] / run_s);
    merge.push_back(parts[1] / run_s);
    control.push_back(parts[2] / run_s);
    account.push_back(parts[3] / run_s);
    attributed.push_back((parts[0] + parts[1] + parts[2] + parts[3]) / run_s);
  }
  const std::size_t n = traced.size();
  const ptb::RunResult& last = traced.back().result;
  const ptb::StatsDump& d = *last.stats;
  const double core_cycles =
      static_cast<double>(last.cycles) * static_cast<double>(last.num_cores);

  r.layer("sim", "cmp.ctor_ms", median(ctor), "ms", n, source, kMovesRun);
  r.layer("sim", "cmp.run_ms", median(run), "ms", n, source, kMovesRun);
  r.layer("sim", "cmp.ns_per_core_cycle", median(run) * 1e6 / core_cycles,
          "ns", n, source, kMovesRun);
  r.layer("sim", "cmp.self.tick_share", median(tick), "ratio", n, source,
          kMovesRun);
  r.layer("sim", "cmp.self.merge_share", median(merge), "ratio", n, source,
          kMovesRun);
  r.layer("sim", "cmp.self.control_share", median(control), "ratio", n,
          source, kMovesRun);
  r.layer("sim", "cmp.self.account_share", median(account), "ratio", n,
          source, kMovesRun);
  r.layer("sim", "cmp.self.attributed", median(attributed), "ratio", n,
          source, kMovesRun);
  r.layer("sim", "cmp.cycles", static_cast<double>(last.cycles), "count", 1,
          source, kMovesModel);
  r.layer("sim", "cmp.core_cycles", core_cycles, "count", 1, source,
          kMovesModel);

  r.layer("cpu", "cpu.committed", sum_stats(d, "core.", ".committed"), "count",
          1, source, kMovesModel);
  r.layer("cpu", "cpu.flushes", sum_stats(d, "core.", ".flushes"), "count", 1,
          source, kMovesModel);
  r.layer("cpu", "cpu.stall.rob", sum_stats(d, "core.", ".stall.rob"),
          "count", 1, source, kMovesModel);
  r.layer("mem", "mem.accesses",
          stat(d, "mem.loads") + stat(d, "mem.stores") +
              stat(d, "mem.atomics") + stat(d, "mem.ifetches"),
          "count", 1, source, kMovesModel);
  r.layer("mem", "mem.l1_misses", stat(d, "mem.l1_misses"), "count", 1, source,
          kMovesModel);
  r.layer("noc", "noc.messages", stat(d, "noc.messages"), "count", 1, source,
          kMovesModel);
  r.layer("noc", "noc.flit_hops", stat(d, "noc.flit_hops"), "count", 1, source,
          kMovesModel);
  const double donated = stat(d, "ptb.balancer.tokens_donated");
  const double granted = stat(d, "ptb.balancer.tokens_granted");
  r.layer("core", "ptb.tokens_donated", donated, "tokens", 1, source,
          kMovesModel);
  r.layer("core", "ptb.tokens_granted", granted, "tokens", 1, source,
          kMovesModel);
  r.layer("core", "ptb.grant_ratio", donated > 0.0 ? granted / donated : 0.0,
          "ratio", 1, source, kMovesModel);
  r.layer("dvfs", "dvfs.transitions",
          sum_stats(d, "core.", ".enforcer.dvfs.transitions"), "count", 1,
          source, kMovesModel);
  const double lookups = sum_stats(d, "core.", ".ptht.lookups");
  r.layer("power", "power.ptht.cold_miss_ratio",
          lookups > 0.0 ? sum_stats(d, "core.", ".ptht.cold_misses") / lookups
                        : 0.0,
          "ratio", 1, source, kMovesModel);
  r.layer("trace", "trace.overhead_pct",
          (median(total_traced) / median(total_plain) - 1.0) * 100.0, "%", n,
          source, "cost of RunOptions::stats on op_p50_ms @ single");
}

}  // namespace

void run_single(const Options& o, Mode mode, Report& r) {
  const ptb::SimConfig cfg = reference_config(o.seed);
  const bool traced = mode == Mode::kProbe || o.trace;
  ptb::RunOptions stats_on;
  stats_on.stats = true;

  std::vector<double> lat_ms, pass_s, pass_mcps, pass_ops;
  std::vector<Rep> plain, with_stats;
  std::vector<std::string> summaries;
  double measured_s = 0.0;
  while (true) {
    const auto pass_t0 = Clock::now();
    const int reps = mode == Mode::kProbe ? 2 * kProbePairs : kRepsPerPass;
    double core_cycles = 0.0;
    for (int k = 0; k < reps; ++k) {
      Rep rep;
      if (!traced) {
        // The untraced repetition goes through the public run_one entry.
        const auto t0 = Clock::now();
        rep.result = ptb::run_one(reference_profile(), cfg);
        rep.run_ms = ms_since(t0);
      } else {
        // Traced runs alternate plain and stats-on repetitions so the
        // stats overhead is measured against the same host state.
        rep = timed_rep(cfg, k % 2 == 0 ? ptb::RunOptions{} : stats_on);
      }
      lat_ms.push_back(rep.ctor_ms + rep.run_ms);
      core_cycles += static_cast<double>(rep.result.cycles) *
                     static_cast<double>(rep.result.num_cores);
      summaries.push_back(ptb::run_summary_kv(rep.result));
      if (rep.result.hit_max_cycles) r.fail("single: repetition hit max_cycles");
      if (traced) (k % 2 == 0 ? plain : with_stats).push_back(std::move(rep));
    }
    const double wall = ms_since(pass_t0) / 1000.0;
    pass_s.push_back(wall);
    pass_mcps.push_back(core_cycles / wall / 1e6);
    pass_ops.push_back(reps / wall);
    measured_s += wall;
    if (mode == Mode::kProbe) break;
    if (o.setup != nullptr) o.setup->sample(1, r);
    if (measured_s + wall > o.seconds) break;
  }

  const std::string expect = check_reference(o, r);
  for (const std::string& s : summaries) {
    ++r.attempted;
    if (s != expect) r.fail("single: repetition summary differs from the reference run");
  }

  if (mode == Mode::kMeasure) {
    // Rates are medians over passes, like wall_s: a slow stretch of the
    // host moves a few passes, not the whole figure.
    r.add("wall_s", median(pass_s), "s", pass_s.size());
    r.add("sim_mcps", median(pass_mcps), "Mcycle/s", pass_mcps.size());
    r.add("op_p50_ms", quantile(lat_ms, 0.5), "ms", lat_ms.size());
    r.add("op_p90_ms", quantile(lat_ms, 0.9), "ms", lat_ms.size());
    r.add("ops_per_s", median(pass_ops), "1/s", pass_ops.size());
    r.add("peak_rss_mb", self_peak_rss_mib(), "MiB", 1);
  }
  if (traced) {
    report_layers(plain, with_stats,
                  mode == Mode::kProbe ? "probe: reference run x10"
                                       : "single (traced reps)",
                  r);
  }
}

}  // namespace perfbench

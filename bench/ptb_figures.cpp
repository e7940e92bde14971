// ptb-figures: every paper artifact — Table 2, Figures 2-14, Section IV.D,
// the extensions and the ablations — as one row of one table, rendered in
// one process against one run memo, so a simulation that several figures
// share runs once. The rows only read runs; render_rows (bench_util.hpp)
// runs every missing run of every selected row as one batch on one
// RunPool, largest core count first.
//
//   ptb-figures [OPTIONS] [NAME... | all]
//
// Selected rows print in table order. Each row's text goes to stdout, or
// with --out DIR (an existing directory) to DIR/<name>.txt beside
// DIR/<name>.json; the name is the JSON "bench" field and the results/
// file stem. The reference-run flags (--trace, --stats, --checkpoint-at,
// --restore-from) do not depend on any figure: they run after the
// selected rows, or alone when no NAME is given.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/file.hpp"
#include "sim/checkpoint.hpp"
#include "stats/dump.hpp"

namespace ptb::bench {

namespace {

const FigureRow kFigures[] = {
    {"bench_table2_workloads", "Table 2", "evaluated benchmarks and input sets",
     bench_table2_workloads},
    {"bench_fig02_naive", "Figure 2",
     "naive equal power split, 16-core CMP, 50% budget", bench_fig02_naive},
    {"bench_fig03_breakdown", "Figure 3",
     "execution time breakdown for 2-16 cores (%)", bench_fig03_breakdown},
    {"bench_fig04_spinpower", "Figure 4",
     "spin power as % of total CMP energy", bench_fig04_spinpower},
    {"bench_fig06_spintrace", "Figure 6", "per-cycle power of a spinning core",
     bench_fig06_spintrace},
    {"bench_fig09_scaling", "Figure 9",
     "suite averages for 2-16 cores and both PTB policies",
     bench_fig09_scaling},
    {"bench_fig10_toall", "Figure 10", "16-core detail, PTB policy = ToAll",
     bench_fig10_toall},
    {"bench_fig11_toone", "Figure 11", "16-core detail, PTB policy = ToOne",
     bench_fig11_toone},
    {"bench_fig12_dynamic", "Figure 12",
     "16-core detail, dynamic ToOne/ToAll selector", bench_fig12_dynamic},
    {"bench_fig13_perf", "Figure 13",
     "performance slowdown, 16 cores, dynamic selector", bench_fig13_perf},
    {"bench_fig14_relaxed", "Figure 14",
     "relaxed-accuracy PTB (+20% threshold), 2-16 cores", bench_fig14_relaxed},
    {"bench_ivd_tdp", "Section IV.D",
     "cores per 100 W TDP from measured accuracy", bench_ivd_tdp},
    {"bench_ext_variance", "Seed variance",
     "headline metrics across 5 seeds, 16 cores", bench_ext_variance},
    {"bench_ext_thermal", "Thermal extension",
     "per-core temperature mean / stability, 16 cores", bench_ext_thermal},
    {"bench_ext_spingate", "Spin-gating extension",
     "PTB as a spin detector that gates spinning cores", bench_ext_spingate},
    {"bench_ext_baselines", "Prior-art baselines",
     "thrifty barrier & meeting points vs PTB, 16 cores", bench_ext_baselines},
    {"bench_ext_cluster", "Clustered PTB",
     "monolithic vs per-cluster balancers at 32 cores", bench_ext_cluster},
    {"bench_abl_tokens", "Ablations", "PTB design-constant sensitivity",
     bench_abl_tokens},
    {"bench_abl_substrate", "Substrate ablations",
     "coherence protocol, DRAM model, warmup (8 cores)", bench_abl_substrate},
};

/// The reference-run flags (--trace, --stats, --checkpoint-at,
/// --restore-from) share one configuration: PTB+2Level under the dynamic
/// policy selector on 16 cores, on the --only benchmark or else fft (the
/// benchmark of every checked-in reference artifact, such as
/// results/stats_fig10.json). Each flag simulates it once with its own
/// observer (or restores it), outside the memo and on the calling thread,
/// so its bytes are independent of --jobs. Returns false after reporting
/// any failure.
bool run_reference(const BenchOptions& o) {
  const SimConfig cfg = make_sim_config(
      16, {"PTB+2Level(dyn)", TechniqueKind::kTwoLevel, true,
           PtbPolicy::kDynamic, 0.0});
  const WorkloadProfile& prof =
      benchmark_by_name(o.only.empty() ? "fft" : o.only);
  const std::string run = prof.name + " on PTB+2Level(dyn)/16 cores";
  const auto fail = [](const std::string& why) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    return false;
  };
  const auto ull = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  bool ok = true;
  if (!o.trace_path.empty()) {
    RunOptions ropts;
    ropts.trace_categories = o.trace_categories;
    const RunResult r = run_one(prof, cfg, ropts);
    if (!r.trace || !r.trace->save(o.trace_path)) {
      ok = fail("cannot write trace to " + o.trace_path);
    } else {
      std::printf("\ntrace: %s -> %s (%llu events, %llu dropped; "
                  "categories %s)\n",
                  run.c_str(), o.trace_path.c_str(),
                  ull(r.trace->total_events()), ull(r.trace->total_dropped()),
                  trace_categories_string(r.trace->categories).c_str());
    }
  }
  if (!o.stats_path.empty()) {
    RunOptions ropts;
    ropts.stats = true;
    ropts.stats_sample_every = o.stats_every;
    const RunResult r = run_one(prof, cfg, ropts);
    if (!write_file(o.stats_path, stats_json(r))) {
      ok = fail("cannot write stats to " + o.stats_path);
    } else {
      std::printf("\nstats: %s -> %s (%zu stats%s)\n", run.c_str(),
                  o.stats_path.c_str(), r.stats->scalars.size(),
                  o.stats_every > 0 ? ", sampled" : "");
    }
  }
  if (!o.checkpoint_path.empty()) {
    // The capture run continues to completion; its summary matches the
    // one --restore-from prints for a bit-identical resume.
    std::string frame, err;
    RunOptions ropts;
    ropts.checkpoint_at = o.checkpoint_at;
    ropts.checkpoint_out = &frame;
    const RunResult r = run_one(prof, cfg, ropts);
    if (frame.empty()) {
      ok = fail("run finished at cycle " + std::to_string(r.cycles) +
                " before reaching --checkpoint-at cycle " +
                std::to_string(o.checkpoint_at));
    } else if (!save_checkpoint_file(o.checkpoint_path, frame, &err)) {
      ok = fail("cannot write checkpoint to " + o.checkpoint_path + ": " +
                err);
    } else {
      std::printf("\ncheckpoint: %s at cycle %llu -> %s (%zu bytes)\n"
                  "captured: %s -> finished at cycle %llu (energy %.3f)\n",
                  run.c_str(), ull(o.checkpoint_at),
                  o.checkpoint_path.c_str(), frame.size(), run.c_str(),
                  ull(r.cycles), r.energy);
    }
  }
  if (!o.restore_path.empty()) {
    // A frame captured under another config, seed or benchmark is
    // rejected with the validator's diagnostic.
    std::string frame, err;
    CmpSimulator sim(cfg, prof);
    if (!load_checkpoint_file(o.restore_path, frame, &err) ||
        !sim.restore_checkpoint(frame, &err)) {
      ok = fail("cannot restore from " + o.restore_path + ": " + err);
    } else {
      const RunResult r = sim.run();
      std::printf("\nrestored: %s from %s -> finished at cycle %llu "
                  "(energy %.3f)\n",
                  run.c_str(), o.restore_path.c_str(), ull(r.cycles),
                  r.energy);
    }
  }
  return ok;
}

int run(int argc, char** argv) {
  BenchOptions opts;
  bool help = false;
  bool list = false;
  const std::vector<FlagRow> rows = bench_flag_rows(opts, help, list);
  const FlagParse parsed = parse_flags(rows, argc, argv);
  if (!parsed.error.empty()) {
    std::fprintf(stderr, "%s: %s (try --help)\n", argv[0],
                 parsed.error.c_str());
    return 2;
  }
  if (help) {
    std::printf("usage: %s [OPTIONS] [NAME... | all]\n%s", argv[0],
                usage_rows(rows).c_str());
    return 0;
  }
  if (list) {
    for (const std::string& n : full_benchmark_names())
      std::printf("%s\n", n.c_str());
    return 0;
  }

  const std::vector<std::string>& names = parsed.positional;
  for (const std::string& name : names) {
    const auto is_row = [&name](const FigureRow& r) { return name == r.name; };
    if (name != "all" && std::ranges::none_of(kFigures, is_row)) {
      std::string valid = "all";
      for (const FigureRow& r : kFigures) valid += std::string(", ") + r.name;
      std::fprintf(stderr, "%s: unknown figure '%s' (valid: %s)\n", argv[0],
                   name.c_str(), valid.c_str());
      return 2;
    }
  }
  const bool all = std::ranges::find(names, "all") != names.end();
  if (names.empty() && opts.trace_path.empty() &&
      opts.stats_path.empty() && opts.checkpoint_path.empty() &&
      opts.restore_path.empty()) {
    std::fprintf(stderr,
                 "%s: name a figure, 'all', or a reference-run flag (try "
                 "--help)\n",
                 argv[0]);
    return 2;
  }

  // Applies to every config built through make_sim_config from here on;
  // set before any run is submitted to the pool.
  set_default_audit_level(opts.audit);
  // The suite filter must be installed before anything materializes the
  // suite (the first benchmark_suite() call freezes it).
  if (!set_suite_filter(opts.only)) {
    std::fprintf(stderr,
                 "error: unknown benchmark '%s' for --only (try --list)\n",
                 opts.only.c_str());
    return 2;
  }

  std::vector<FigureRow> selected;
  for (const FigureRow& row : kFigures) {
    if (all || std::ranges::find(names, row.name) != names.end())
      selected.push_back(row);
  }
  RunPool pool(opts.jobs);
  BaseRunCache memo;
  int rc = 0;
  const std::vector<RenderedRow> rendered = render_rows(selected, pool, memo);
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const std::string stem = opts.out_dir + "/" + selected[i].name;
    if (opts.out_dir.empty()) {
      std::fputs(rendered[i].text.c_str(), stdout);
    } else if (!write_file(stem + ".txt", rendered[i].text) ||
               !write_file(stem + ".json", rendered[i].json)) {
      std::fprintf(stderr, "error: cannot write %s.{txt,json}\n",
                   stem.c_str());
      rc = 1;
    }
  }
  if (!run_reference(opts)) rc = 1;
  return rc;
}

}  // namespace
}  // namespace ptb::bench

int main(int argc, char** argv) { return ptb::bench::run(argc, argv); }

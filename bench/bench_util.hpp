// Shared helpers for the per-figure bench binaries: the common flag table
// (--jobs / --json / ...), the run pool, and the JSON report every binary can
// emit next to its printed tables.
//
// Threading & determinism: the BenchContext owns one RunPool sized by
// --jobs; grid helpers (sim/experiment.hpp) and hand-rolled bench loops
// submit their independent runs to it and read the results back in
// submission order, so every table and every JSON byte is identical at any
// --jobs value (only the wall clock changes). Each simulation itself is
// one serial cycle loop; see DESIGN.md "Threading model & determinism
// contract".
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/file.hpp"
#include "common/flags.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/reporting.hpp"
#include "sim/run_pool.hpp"
#include "stats/dump.hpp"
#include "trace/trace.hpp"
#include "workloads/suite.hpp"

namespace ptb::bench {

/// Options every bench binary accepts; bench_flag_rows documents each.
struct BenchOptions {
  unsigned jobs = 0;  // 0 = RunPool::default_jobs()
  std::string json_path;
  AuditLevel audit = AuditLevel::kOff;
  std::string only;  // empty = whole suite
  std::string trace_path;
  std::uint32_t trace_categories = kTraceAll;
  std::string stats_path;
  std::uint64_t stats_every = 0;  // 0 = no time-series sampling
  bool stats_prom = false;
  std::uint64_t checkpoint_at = 0;
  std::string checkpoint_path;
  std::string restore_path;
};

/// The shared flags as a table over `opts`. --help and --list only set
/// their switches; parse_bench_args acts on them.
inline std::vector<FlagRow> bench_flag_rows(BenchOptions& opts, bool& help,
                                            bool& list) {
  return {
      {"--jobs", "-j", "N",
       {"worker threads for the run grid (default: all hardware",
        "threads); results are identical for any N"},
       flag_uint(opts.jobs, 1, 4096)},
      {"--json", "", "PATH",
       {"also write the results as machine-readable JSON"},
       flag_string(opts.json_path)},
      {"--audit", "", "LEVEL",
       {"run the invariant auditor on every simulation: off",
        "(default), cheap (per-core checks each cycle) or full",
        "(adds periodic coherence scans); any level aborts the",
        "run on a violated invariant and never changes the",
        "reported numbers"},
       flag_enum(opts.audit)},
      {"--only", "", "NAME",
       {"restrict the benchmark suite to one benchmark"},
       flag_string(opts.only)},
      {"--list", "", "", {"print the suite's benchmark names and exit"},
       flag_switch(list)},
      // PATH[:CATS]: the suffix after the last ':' is a category list only
      // if it parses as one; otherwise it is part of the path.
      {"--trace", "", "PATH[:CATS]",
       {"additionally capture one event-traced reference run",
        "(PTB+2Level, dynamic policy, 16 cores, the suite's first",
        "benchmark) and write the binary trace to PATH (inspect",
        "with ptb-trace). CATS is 'all' (default) or a comma list",
        "of: token, policy, dvfs, spin, enforcer, sync, budget"},
       {[&opts](std::string_view v) {
          std::uint32_t cats = kTraceAll;
          const std::size_t colon = v.rfind(':');
          if (colon != std::string_view::npos &&
              parse_trace_categories(v.substr(colon + 1), cats)) {
            v = v.substr(0, colon);
          }
          if (v.empty()) return false;
          opts.trace_path = v;
          opts.trace_categories = cats;
          return true;
        },
        "PATH[:CATS]"}},
      // PATH[:EVERY]: the suffix after the last ':' is a sampling period
      // only if it parses as a positive integer; otherwise it is part of
      // the path.
      {"--stats", "", "PATH[:EVERY]",
       {"additionally capture one stats-instrumented reference",
        "run (same configuration as --trace) and write the",
        "registry dump to PATH (inspect with ptb-stats). EVERY",
        "> 0 also samples every scalar stat every EVERY cycles",
        "into the dump's time series"},
       {[&opts](std::string_view v) {
          std::uint64_t every = 0;
          const std::size_t colon = v.rfind(':');
          if (colon != std::string_view::npos &&
              parse_number(v.substr(colon + 1), every) && every > 0) {
            v = v.substr(0, colon);
          } else {
            every = 0;
          }
          if (v.empty()) return false;
          opts.stats_path = v;
          opts.stats_every = every;
          return true;
        },
        "PATH[:EVERY]"}},
      {"--stats-format", "", "json|prom",
       {"exposition for --stats: JSON (default; the ptb-stats",
        "interchange format) or Prometheus text"},
       {[&opts](std::string_view v) {
          if (v != "json" && v != "prom") return false;
          opts.stats_prom = v == "prom";
          return true;
        },
        "json or prom"}},
      // CYC:PATH: the cycle is numeric, so the first ':' ends it and the
      // rest (which may itself contain ':') is the output path.
      {"--checkpoint-at", "", "CYC:PATH",
       {"capture a checkpoint of the reference run (the --trace",
        "configuration) at cycle CYC, write the frame to PATH"},
       {[&opts](std::string_view v) {
          const std::size_t colon = v.find(':');
          std::uint64_t cyc = 0;
          if (colon == std::string_view::npos ||
              !parse_number(v.substr(0, colon), cyc) || colon + 1 == v.size()) {
            return false;
          }
          opts.checkpoint_at = cyc;
          opts.checkpoint_path = v.substr(colon + 1);
          return true;
        },
        "CYC:PATH"}},
      {"--restore-from", "", "PATH",
       {"restore the reference run from a frame written by",
        "--checkpoint-at and run it to completion; the resumed",
        "run is bit-identical to an uninterrupted one"},
       flag_string(opts.restore_path)},
      {"--help", "-h", "", {"print this help and exit"}, flag_switch(help)},
  };
}

/// Parses the shared flags; prints usage and exits on --help, --list or a
/// bad argument. Call once, from main.
inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opts;
  bool help = false;
  bool list = false;
  const std::vector<FlagRow> rows = bench_flag_rows(opts, help, list);
  const FlagParse parsed = parse_flags(rows, argc, argv, 0);
  if (!parsed.error.empty()) {
    std::fprintf(stderr, "%s: %s (try --help)\n", argv[0],
                 parsed.error.c_str());
    std::exit(2);
  }
  if (help) {
    std::printf("usage: %s [OPTIONS]\n%s", argv[0],
                usage_rows(rows).c_str());
    std::exit(0);
  }
  if (list) {
    for (const std::string& n : full_benchmark_names())
      std::printf("%s\n", n.c_str());
    std::exit(0);
  }
  return opts;
}

/// Everything one bench main needs: parsed options, the worker pool, the
/// base-run cache, and the JSON report. Construct first thing in main;
/// return finish() last thing.
class BenchContext {
 public:
  /// Parses argv, prints the standard figure header, and spins up the
  /// pool. `name` is the binary's canonical name (the JSON "bench" field).
  BenchContext(int argc, char** argv, const char* name, const char* figure,
               const char* what)
      : opts_(parse_bench_args(argc, argv)),
        pool_(opts_.jobs),
        report_(name) {
    // Applies to every config built through make_sim_config from here on;
    // set before any run is submitted to the pool.
    set_default_audit_level(opts_.audit);
    // The suite filter must be installed before anything materializes the
    // suite (the first benchmark_suite() call freezes it).
    if (!set_suite_filter(opts_.only)) {
      std::fprintf(stderr,
                   "error: unknown benchmark '%s' for --only (try --list)\n",
                   opts_.only.c_str());
      std::exit(2);
    }
    std::printf("==========================================================\n");
    std::printf("%s — %s\n", figure, what);
    std::printf("(normalized to the no-power-control base case; budget = 50%%"
                " of peak)\n");
    std::printf("==========================================================\n\n");
  }

  RunPool& pool() { return pool_; }
  BaseRunCache& cache() { return cache_; }
  BenchReport& report() { return report_; }
  const BenchOptions& options() const { return opts_; }

  /// Print a table and record it in the JSON report.
  void show(const Table& t, const std::string& title) {
    t.print(title);
    report_.add_table(title, t);
  }

  /// Print a grid's energy/AoPB pair (the paper's paired-figure layout)
  /// and record the grid in the JSON report.
  void show_energy_aopb(const FigureGrid& grid, const std::string& title) {
    print_energy_aopb(grid, title);
    report_.add_grid(title, grid);
  }

  /// Print a grid's slowdown table (Figure 13 style) and record the grid.
  void show_slowdown(const FigureGrid& grid, const std::string& title) {
    print_slowdown(grid, title);
    report_.add_grid(title, grid);
  }

  /// Writes the JSON report if --json was given and captures the --trace
  /// reference run if requested. Returns main's exit code.
  int finish() {
    int rc = 0;
    if (!opts_.trace_path.empty() && !write_trace()) rc = 1;
    if (!opts_.stats_path.empty() && !write_stats()) rc = 1;
    if (!opts_.checkpoint_path.empty() && !write_checkpoint()) rc = 1;
    if (!opts_.restore_path.empty() && !run_restored()) rc = 1;
    if (!opts_.json_path.empty() && !report_.write(opts_.json_path)) {
      std::fprintf(stderr, "error: cannot write JSON to %s\n",
                   opts_.json_path.c_str());
      rc = 1;
    }
    return rc;
  }

 private:
  /// The reference-run configuration shared by --trace, --stats,
  /// --checkpoint-at and --restore-from: the paper's headline setup,
  /// PTB+2Level under the dynamic policy selector on 16 cores.
  static SimConfig reference_config() {
    TechniqueSpec tech;
    tech.label = "PTB+2Level(dyn)";
    tech.kind = TechniqueKind::kTwoLevel;
    tech.ptb = true;
    tech.policy = PtbPolicy::kDynamic;
    return make_sim_config(16, tech);
  }

  /// The --trace reference run on the first benchmark of the (possibly
  /// --only-filtered) suite. Runs on the calling thread, so the trace
  /// bytes are independent of --jobs.
  bool write_trace() {
    const SimConfig cfg = reference_config();
    RunOptions ropts;
    ropts.trace_categories = opts_.trace_categories;
    const WorkloadProfile& prof = benchmark_suite().front();
    const RunResult r = run_one(prof, cfg, ropts);
    if (!r.trace || !r.trace->save(opts_.trace_path)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   opts_.trace_path.c_str());
      return false;
    }
    std::printf(
        "\ntrace: %s on PTB+2Level(dyn)/16 cores -> %s (%llu events, %llu "
        "dropped; categories %s)\n",
        prof.name.c_str(), opts_.trace_path.c_str(),
        static_cast<unsigned long long>(r.trace->total_events()),
        static_cast<unsigned long long>(r.trace->total_dropped()),
        trace_categories_string(r.trace->categories).c_str());
    return true;
  }

  /// The --stats reference run: same configuration as --trace, run on the
  /// calling thread with the stats registry enabled.
  bool write_stats() {
    const SimConfig cfg = reference_config();
    RunOptions ropts;
    ropts.stats = true;
    ropts.stats_sample_every = opts_.stats_every;
    const WorkloadProfile& prof = benchmark_suite().front();
    const RunResult r = run_one(prof, cfg, ropts);
    const std::string text =
        opts_.stats_prom ? stats_prometheus(r) : stats_json(r);
    if (text.empty() || !write_file(opts_.stats_path, text)) {
      std::fprintf(stderr, "error: cannot write stats to %s\n",
                   opts_.stats_path.c_str());
      return false;
    }
    std::printf(
        "\nstats: %s on PTB+2Level(dyn)/16 cores -> %s (%zu stats%s)\n",
        prof.name.c_str(), opts_.stats_path.c_str(),
        r.stats ? r.stats->scalars.size() : 0,
        opts_.stats_every > 0 ? ", sampled" : "");
    return true;
  }

  /// --checkpoint-at CYC:PATH: the reference run again, capturing a full
  /// simulator checkpoint at cycle CYC and writing the frame to PATH, then
  /// printing the completed run's "finished at cycle N (energy E)".
  bool write_checkpoint() {
    const SimConfig cfg = reference_config();
    const WorkloadProfile& prof = benchmark_suite().front();
    std::string frame;
    RunOptions ropts;
    ropts.checkpoint_at = opts_.checkpoint_at;
    ropts.checkpoint_out = &frame;
    const RunResult r = run_one(prof, cfg, ropts);
    if (frame.empty()) {
      std::fprintf(stderr,
                   "error: run finished at cycle %llu before reaching "
                   "--checkpoint-at cycle %llu\n",
                   static_cast<unsigned long long>(r.cycles),
                   static_cast<unsigned long long>(opts_.checkpoint_at));
      return false;
    }
    std::string err;
    if (!save_checkpoint_file(opts_.checkpoint_path, frame, &err)) {
      std::fprintf(stderr, "error: cannot write checkpoint to %s: %s\n",
                   opts_.checkpoint_path.c_str(), err.c_str());
      return false;
    }
    std::printf(
        "\ncheckpoint: %s on PTB+2Level(dyn)/16 cores at cycle %llu -> %s "
        "(%zu bytes)\n",
        prof.name.c_str(),
        static_cast<unsigned long long>(opts_.checkpoint_at),
        opts_.checkpoint_path.c_str(), frame.size());
    // The capture run itself runs to completion; its summary matches the
    // one --restore-from prints for a bit-identical resume.
    std::printf(
        "captured: %s on PTB+2Level(dyn)/16 cores -> finished at cycle %llu "
        "(energy %.3f)\n",
        prof.name.c_str(), static_cast<unsigned long long>(r.cycles),
        r.energy);
    return true;
  }

  /// --restore-from PATH: restore the reference run from a frame and run
  /// it to completion. The resumed run is bit-identical to an
  /// uninterrupted one; a frame from a different machine configuration,
  /// seed, or benchmark is rejected with the validator's diagnostic.
  bool run_restored() {
    const SimConfig cfg = reference_config();
    const WorkloadProfile& prof = benchmark_suite().front();
    std::string frame;
    std::string err;
    if (!load_checkpoint_file(opts_.restore_path, frame, &err)) {
      std::fprintf(stderr, "error: cannot read checkpoint %s: %s\n",
                   opts_.restore_path.c_str(), err.c_str());
      return false;
    }
    CmpSimulator sim(cfg, prof);
    if (!sim.restore_checkpoint(frame, &err)) {
      std::fprintf(stderr, "error: cannot restore from %s: %s\n",
                   opts_.restore_path.c_str(), err.c_str());
      return false;
    }
    const RunResult r = sim.run();
    std::printf(
        "\nrestored: %s on PTB+2Level(dyn)/16 cores from %s -> finished at "
        "cycle %llu (energy %.3f)\n",
        prof.name.c_str(), opts_.restore_path.c_str(),
        static_cast<unsigned long long>(r.cycles), r.energy);
    return true;
  }

  BenchOptions opts_;
  RunPool pool_;
  BaseRunCache cache_;
  BenchReport report_;
};

}  // namespace ptb::bench

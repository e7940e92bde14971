// Shared helpers for the per-figure bench binaries: common CLI parsing
// (--jobs / --json), the run pool, and the JSON report every binary can
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
#include <cstring>
#include <string>
#include <vector>

#include "common/file.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/reporting.hpp"
#include "sim/run_pool.hpp"
#include "stats/dump.hpp"
#include "trace/trace.hpp"
#include "workloads/suite.hpp"

namespace ptb::bench {

/// Options every bench binary accepts.
struct BenchOptions {
  unsigned jobs = 0;      // --jobs N; 0 = RunPool::default_jobs()
  std::string json_path;  // --json PATH; empty = no JSON output
  AuditLevel audit = AuditLevel::kOff;  // --audit {off,cheap,full}
  std::string only;       // --only NAME; empty = whole suite
  // --trace PATH[:categories]: capture one event-traced reference run
  // (PTB+2Level under the dynamic selector, 16 cores, the suite's first
  // benchmark) and write the binary trace to PATH for ptb-trace.
  std::string trace_path;
  std::uint32_t trace_categories = kTraceAll;
  // --stats PATH[:EVERY]: capture one stats-instrumented reference run
  // (same configuration as --trace) and write the registry dump to PATH
  // for ptb-stats; EVERY > 0 adds time-series sampling every that many
  // cycles. --stats-format picks the exposition.
  std::string stats_path;
  std::uint64_t stats_every = 0;
  bool stats_prom = false;  // --stats-format json (default) | prom
  // --checkpoint-at CYC:PATH: capture a checkpoint of the reference run
  // (the --trace/--stats configuration) at cycle CYC and write it to PATH.
  std::uint64_t checkpoint_at = 0;
  std::string checkpoint_path;
  // --restore-from PATH: restore the reference run from a checkpoint frame
  // and run it to completion (proves frames round-trip from the CLI).
  std::string restore_path;
};

/// Parses the shared flags; prints usage and exits on --help or on an
/// unknown/malformed argument. Call once, from main.
inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs" || arg == "-j") {
      const long n = std::strtol(value("--jobs"), nullptr, 10);
      if (n < 1) {
        std::fprintf(stderr, "%s: --jobs must be >= 1\n", argv[0]);
        std::exit(2);
      }
      opts.jobs = static_cast<unsigned>(n);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const long n = std::strtol(arg.c_str() + 7, nullptr, 10);
      if (n < 1) {
        std::fprintf(stderr, "%s: --jobs must be >= 1\n", argv[0]);
        std::exit(2);
      }
      opts.jobs = static_cast<unsigned>(n);
    } else if (arg == "--json") {
      opts.json_path = value("--json");
    } else if (arg.rfind("--json=", 0) == 0) {
      opts.json_path = arg.substr(7);
    } else if (arg == "--audit" || arg.rfind("--audit=", 0) == 0) {
      const char* v =
          arg[7] == '=' ? arg.c_str() + 8 : value("--audit");
      if (!parse_audit_level(v, opts.audit)) {
        std::fprintf(stderr, "%s: --audit must be off, cheap or full\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (arg == "--only") {
      opts.only = value("--only");
    } else if (arg.rfind("--only=", 0) == 0) {
      opts.only = arg.substr(7);
    } else if (arg == "--list") {
      for (const std::string& n : full_benchmark_names())
        std::printf("%s\n", n.c_str());
      std::exit(0);
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      // PATH[:categories] — the suffix after the last ':' is a category
      // list only if it parses as one; otherwise it is part of the path.
      std::string v = arg[7] == '=' ? arg.substr(8) : value("--trace");
      const std::size_t colon = v.rfind(':');
      if (colon != std::string::npos &&
          parse_trace_categories(v.substr(colon + 1),
                                 opts.trace_categories)) {
        v.resize(colon);
      }
      if (v.empty()) {
        std::fprintf(stderr, "%s: --trace requires a file path\n", argv[0]);
        std::exit(2);
      }
      opts.trace_path = v;
    } else if (arg == "--stats" || arg.rfind("--stats=", 0) == 0) {
      // PATH[:EVERY] — the suffix after the last ':' is a sampling period
      // only if it parses as a positive integer; otherwise it is part of
      // the path.
      std::string v = arg[7] == '=' ? arg.substr(8) : value("--stats");
      const std::size_t colon = v.rfind(':');
      if (colon != std::string::npos && colon + 1 < v.size()) {
        char* end = nullptr;
        const unsigned long long every =
            std::strtoull(v.c_str() + colon + 1, &end, 10);
        if (end != v.c_str() + colon + 1 && *end == '\0' && every > 0) {
          opts.stats_every = every;
          v.resize(colon);
        }
      }
      if (v.empty()) {
        std::fprintf(stderr, "%s: --stats requires a file path\n", argv[0]);
        std::exit(2);
      }
      opts.stats_path = v;
    } else if (arg == "--checkpoint-at" ||
               arg.rfind("--checkpoint-at=", 0) == 0) {
      // CYC:PATH — the cycle is numeric, so the first ':' ends it and the
      // rest (which may itself contain ':') is the output path.
      const std::string v = arg.size() > 15 && arg[15] == '='
                                ? arg.substr(16)
                                : std::string(value("--checkpoint-at"));
      char* end = nullptr;
      const unsigned long long cyc = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != ':' || end[1] == '\0') {
        std::fprintf(stderr, "%s: --checkpoint-at expects CYC:PATH\n",
                     argv[0]);
        std::exit(2);
      }
      opts.checkpoint_at = cyc;
      opts.checkpoint_path = end + 1;
    } else if (arg == "--restore-from" ||
               arg.rfind("--restore-from=", 0) == 0) {
      opts.restore_path = arg.size() > 14 && arg[14] == '='
                              ? arg.substr(15)
                              : std::string(value("--restore-from"));
      if (opts.restore_path.empty()) {
        std::fprintf(stderr, "%s: --restore-from requires a file path\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (arg == "--stats-format" ||
               arg.rfind("--stats-format=", 0) == 0) {
      const std::string v =
          arg.size() > 14 && arg[14] == '='
              ? arg.substr(15)
              : std::string(value("--stats-format"));
      if (v == "json") {
        opts.stats_prom = false;
      } else if (v == "prom") {
        opts.stats_prom = true;
      } else {
        std::fprintf(stderr, "%s: --stats-format must be json or prom\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--jobs N] [--json PATH]\n"
          "          [--audit LEVEL] [--only NAME | --list]\n"
          "          [--trace PATH[:CATS]] [--stats PATH[:EVERY]]\n"
          "          [--stats-format json|prom]\n"
          "          [--checkpoint-at CYC:PATH] [--restore-from PATH]\n"
          "  --jobs N      worker threads for the run grid (default: all\n"
          "                hardware threads); results are identical for any N\n"
          "  --json PATH   also write the results as machine-readable JSON\n"
          "  --audit LEVEL run the invariant auditor on every simulation:\n"
          "                off (default), cheap (per-core checks each cycle)\n"
          "                or full (adds periodic coherence scans); any\n"
          "                level aborts the run on a violated invariant and\n"
          "                never changes the reported numbers\n"
          "  --only NAME   restrict the benchmark suite to one benchmark\n"
          "  --list        print the suite's benchmark names and exit\n"
          "  --trace PATH[:CATS]\n"
          "                additionally capture one event-traced reference\n"
          "                run (PTB+2Level, dynamic policy, 16 cores, the\n"
          "                suite's first benchmark) and write the binary\n"
          "                trace to PATH (inspect with ptb-trace). CATS is\n"
          "                'all' (default) or a comma list of: token,\n"
          "                policy, dvfs, spin, enforcer, sync, budget\n"
          "  --stats PATH[:EVERY]\n"
          "                additionally capture one stats-instrumented\n"
          "                reference run (same configuration as --trace) and\n"
          "                write the registry dump to PATH (inspect with\n"
          "                ptb-stats). EVERY > 0 also samples every scalar\n"
          "                stat every EVERY cycles into the dump's time\n"
          "                series\n"
          "  --stats-format json|prom\n"
          "                exposition for --stats: JSON (default; the\n"
          "                ptb-stats interchange format) or Prometheus text\n"
          "  --checkpoint-at CYC:PATH\n"
          "                capture a checkpoint of the reference run (the\n"
          "                --trace configuration) at cycle CYC, write the\n"
          "                frame to PATH\n"
          "  --restore-from PATH\n"
          "                restore the reference run from a frame written by\n"
          "                --checkpoint-at and run it to completion; the\n"
          "                resumed run is bit-identical to an uninterrupted\n"
          "                one\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n",
                   argv[0], arg.c_str());
      std::exit(2);
    }
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

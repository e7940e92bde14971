// ptb-perfbench: the repository benchmark driver. Runs one named workload
// (sweep | single | serve) with a workload seed and prints, as its last
// stdout line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics for an untraced run, the per-layer
// metrics for a traced one (--trace 1). Everything before that line is
// for people: the host descriptor, each metric with its unit and sample
// count, and for a traced run the per-layer table.
//
// Usage (perfbench/run.py builds the binary and supplies the paths):
//   ptb-perfbench --workload W --seed N --seconds S --trace 0|1
//                 --root DIR --serve-bin PATH --work-dir DIR
//                 [--commit SHA] [--loadavg X] [--setup-only]
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "perfbench.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupSamples = 5;  // before the first pass; more follow each
constexpr double kLedgerTarget = 0.95;

struct Cli {
  Options o;
  std::string commit = "unknown";
  std::string loadavg = "unknown";
  bool setup_only = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sweep|single|serve --seed N --seconds S "
               "--trace 0|1 --root DIR --serve-bin PATH --work-dir DIR "
               "[--commit SHA] [--loadavg X] [--setup-only]\n",
               argv0);
  return 2;
}

bool parse_cli(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-only") {
      cli.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") cli.o.workload = v;
      else if (a == "--seed") cli.o.seed = std::stoull(v);
      else if (a == "--seconds") cli.o.seconds = std::stod(v);
      else if (a == "--trace") cli.o.trace = v == "1";
      else if (a == "--root") cli.o.root = v;
      else if (a == "--serve-bin") cli.o.serve_bin = v;
      else if (a == "--work-dir") cli.o.work_dir = v;
      else if (a == "--commit") cli.commit = v;
      else if (a == "--loadavg") cli.loadavg = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  const std::string& w = cli.o.workload;
  return (w == "sweep" || w == "single" || w == "serve") &&
         !cli.o.root.empty() && !cli.o.work_dir.empty() &&
         !cli.o.serve_bin.empty() && cli.o.seconds > 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(line.find_first_not_of(' ', c + 1));
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out(1, '"');
  out += ptb::json::escape(s);
  out += '"';
  return out;
}

std::string host_descriptor(const Cli& cli) {
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + json_str(cpu_model()) +
         ",\"compiler\":" + json_str(PERFBENCH_COMPILER) +
         ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) +
         ",\"loadavg_1m\":" + json_str(cli.loadavg) +
         ",\"commit\":" + json_str(cli.commit) + "}";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(const Report& r, const std::vector<Metric>& metrics) {
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_str(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

const LayerMetric* find_layer(const Report& r, const std::string& name) {
  for (const LayerMetric& l : r.layers) {
    if (l.m.name == name) return &l;
  }
  return nullptr;
}

void print_layer_table(const Report& r) {
  std::printf("\nper-layer metrics (layer | metric | value unit | n | moves | source)\n");
  std::vector<const LayerMetric*> rows;
  for (const LayerMetric& l : r.layers) rows.push_back(&l);
  std::stable_sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->layer < b->layer;
  });
  for (const LayerMetric* l : rows) {
    std::printf("  %-6s %-28s %14.6g %-8s n=%-6zu %-44s %s\n", l->layer.c_str(),
                l->m.name.c_str(), l->m.value, l->m.unit.c_str(), l->m.samples,
                l->moves.c_str(), l->source.c_str());
  }

  // Shares: the cycle loop's self-profile split of cmp.run_ms, and the
  // serve pipeline's stage split of the summed stage time.
  std::printf("\nlayer shares\n");
  double attributed = 0.0;
  std::printf("  cycle loop (cmp.run_ms):");
  for (const char* part : {"tick", "merge", "control", "account"}) {
    const LayerMetric* l = find_layer(r, std::string("cmp.self.") + part + "_share");
    const double v = l != nullptr ? l->m.value : 0.0;
    attributed += v;
    std::printf(" %s %.3f |", part, v);
  }
  std::printf(" unattributed %.3f\n", std::max(0.0, 1.0 - attributed));
  double stage_total = 0.0;
  std::vector<std::pair<std::string, double>> stages;
  for (const LayerMetric& l : r.layers) {
    if (l.m.name.rfind("serve.stage.", 0) != 0) continue;
    const double t = l.m.value * static_cast<double>(l.m.samples);
    stages.emplace_back(l.m.name.substr(12), t);
    stage_total += t;
  }
  std::printf("  serve stages (summed stage time):");
  for (const auto& [name, t] : stages) {
    std::printf(" %s %.3f", name.c_str(), stage_total > 0.0 ? t / stage_total : 0.0);
  }
  std::printf("\n");
  if (const LayerMetric* a = find_layer(r, "cmp.self.attributed")) {
    if (a->m.value < kLedgerTarget) {
      std::printf("  FLAG: cmp.self.attributed = %.3f is below the %.2f ledger "
                  "target\n", a->m.value, kLedgerTarget);
    } else {
      std::printf("  cmp.self.attributed = %.3f meets the %.2f ledger target\n",
                  a->m.value, kLedgerTarget);
    }
  }
}

int run(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, cli)) return usage(argv[0]);
  Options& o = cli.o;
  if (cli.setup_only) {
    setup_sim_workload(o);
    return 0;
  }
  std::printf("host: %s\n", host_descriptor(cli).c_str());
  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);
  std::filesystem::create_directories(o.work_dir);
  // The scratch directory (daemon caches, probe files) goes on every exit.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } scratch{o.work_dir};

  Report r;
  std::vector<std::string> bodies, artifacts;
  if (!o.trace) {
    if (o.workload == "serve") {
      run_serve(o, Mode::kMeasure, r, bodies, artifacts);
    } else {
      SetupSampler setup(argc, argv);
      setup.sample(kSetupSamples, r);
      o.setup = &setup;
      setup_sim_workload(o);
      if (o.workload == "sweep") run_sweep(o, Mode::kMeasure, r);
      else run_single(o, Mode::kMeasure, r);
      o.setup = nullptr;
      r.add("setup_s", median(setup.seconds()), "s", setup.seconds().size());
    }
    r.add("ok_ratio",
          r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
          "ratio", r.attempted);
  } else {
    // Traced: the named workload at full length with its own layers, then
    // short probes for the layers only the other workloads reach.
    probe_energy_model(o, r);
    if (o.workload == "sweep") run_sweep(o, Mode::kMeasure, r);
    else if (o.workload == "single") run_single(o, Mode::kMeasure, r);
    else run_serve(o, Mode::kMeasure, r, bodies, artifacts);
    if (o.workload != "sweep") run_sweep(o, Mode::kProbe, r);
    if (o.workload != "single") run_single(o, Mode::kProbe, r);
    if (o.workload != "serve") run_serve(o, Mode::kProbe, r, bodies, artifacts);
    probe_checkpoint_layers(o, r);
    probe_codec_layers(bodies, artifacts, r);
  }

  for (const std::string& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
  std::vector<Metric> out;
  if (!o.trace) {
    std::printf("\nend-to-end metrics\n");
    for (const Metric& m : r.metrics) {
      std::printf("  %-12s %14.6g %-9s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    out = r.metrics;
  } else {
    print_layer_table(r);
    for (const LayerMetric& l : r.layers) out.push_back(l.m);
  }
  std::fflush(stdout);
  print_result(r, out);
  return 0;
}

}  // namespace

SetupSampler::SetupSampler(int argc, char** argv) : args_(argv, argv + argc) {
  args_.push_back("--setup-only");
}

// Each sample is the wall time of one fresh process doing the run's set-up
// and exiting: process start, library and static initialization, and the
// lazy energy-model build.
void SetupSampler::sample(int n, Report& r) {
  std::vector<char*> cargs;
  for (std::string& a : args_) cargs.push_back(a.data());
  cargs.push_back(nullptr);
  for (int k = 0; k < n; ++k) {
    const auto t0 = Clock::now();
    pid_t pid = -1;
    int status = 0;
    const bool ok = posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                                cargs.data(), environ) == 0 &&
                    waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    samples_.push_back(ms_since(t0) / 1000.0);
    if (!ok) r.fail("set-up process failed");
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  (void)argc;
  (void)argv;
  std::fprintf(stderr,
               "ptb-perfbench: refusing to report from a build without "
               "optimisation (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#else
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptb-perfbench: %s\n", e.what());
    return 1;
  }
#endif
}

// Shared vocabulary of the repository benchmark (ptb-perfbench): run
// options, the metric records a workload reports, and small timing and
// statistics helpers. Each workload lives in its own translation unit and
// drives the simulator only through its public entry points.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct Report;

/// Times fresh processes that do only a sweep/single run's set-up (the
/// driver re-run with --setup-only). Workloads take a few samples between
/// passes, so the samples span the run and one slow stretch of the host
/// cannot set their median.
class SetupSampler {
 public:
  SetupSampler(int argc, char** argv);
  void sample(int n, Report& r);
  const std::vector<double>& seconds() const { return samples_; }

 private:
  std::vector<std::string> args_;
  std::vector<double> samples_;
};

/// Everything a workload needs from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;       // checkout root (goldens under results/)
  std::string serve_bin;  // the built ptb-serve daemon
  std::string work_dir;   // private scratch directory, removed at exit
  SetupSampler* setup = nullptr;  // set for untraced sweep/single runs
};

/// One reported number. `samples` is how many observations it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// A per-layer metric: which module it belongs to, where it was measured,
/// and which end-to-end metric (on which workload) it should move.
struct LayerMetric {
  Metric m;
  std::string layer;
  std::string source;
  std::string moves;
};

/// Outcome of one workload run: the operation ledger plus its metrics.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  std::vector<Metric> metrics;        // end-to-end (untraced run)
  std::vector<LayerMetric> layers;    // per-layer (traced run)

  void fail(const std::string& why);
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);
  void layer(const std::string& layer, std::string name, double value,
             std::string unit, std::size_t samples, std::string source,
             std::string moves);
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process in MiB.
double self_peak_rss_mib();

/// The reference run: fft, PTB+2Level under the dynamic ToOne/ToAll
/// selector, 16 cores (the bench binaries' --trace/--stats configuration).
ptb::SimConfig reference_config(std::uint64_t seed);
const ptb::WorkloadProfile& reference_profile();

/// Whole-file read; false when missing.
bool read_file(const std::string& path, std::string& out);

// --- workloads ------------------------------------------------------------

/// kMeasure runs the workload for Options::seconds and reports its
/// end-to-end metrics (plus its own layers when Options::trace is set).
/// kProbe is the short fixed-size variant the traced run of another
/// workload uses to fill in this workload's layers; it reports layers only.
enum class Mode { kMeasure, kProbe };

/// Work a sweep/single run does before its first measured operation (the
/// energy model for the seed). `--setup-only` runs exactly this.
void setup_sim_workload(const Options& o);

void run_sweep(const Options& o, Mode mode, Report& r);
void run_single(const Options& o, Mode mode, Report& r);
/// `bodies`/`artifacts` receive the request bodies and the hot-set
/// artifact payloads the run used (inputs of the codec probe).
void run_serve(const Options& o, Mode mode, Report& r,
               std::vector<std::string>& bodies,
               std::vector<std::string>& artifacts);

/// Direct-call layer probes of the traced run.
void probe_energy_model(const Options& o, Report& r);
void probe_checkpoint_layers(const Options& o, Report& r);
void probe_codec_layers(const std::vector<std::string>& bodies,
                        const std::vector<std::string>& artifacts, Report& r);

}  // namespace perfbench

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iterator>

#include "perfbench.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::layer(const std::string& layer_name, std::string name,
                   double value, std::string unit, std::size_t samples,
                   std::string source, std::string moves) {
  layers.push_back({{std::move(name), value, std::move(unit), samples},
                    layer_name,
                    std::move(source),
                    std::move(moves)});
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double self_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ptb::SimConfig reference_config(std::uint64_t seed) {
  ptb::TechniqueSpec tech;
  tech.label = "PTB+2Level(dyn)";
  tech.kind = ptb::TechniqueKind::kTwoLevel;
  tech.ptb = true;
  tech.policy = ptb::PtbPolicy::kDynamic;
  return ptb::make_sim_config(16, tech, seed);
}

const ptb::WorkloadProfile& reference_profile() {
  return ptb::benchmark_by_name("fft");
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

}  // namespace perfbench

#include "power/thermal.hpp"

#include <algorithm>
#include <cmath>

#include "stats/stats.hpp"

namespace ptb {

ThermalModel::ThermalModel(const ThermalConfig& cfg, std::uint32_t num_cores)
    : cfg_(cfg),
      decay_(std::exp(-static_cast<double>(kStepCycles) / cfg.tau_cycles)),
      temp_(num_cores, cfg.ambient_c),
      hist_(num_cores) {}

void ThermalModel::step(CoreId c, double power) {
  const double t_steady = cfg_.ambient_c + cfg_.r_thermal * power;
  temp_[c] = t_steady + (temp_[c] - t_steady) * decay_;
  hist_[c].add(temp_[c]);
}

double ThermalModel::max_temperature() const {
  double m = cfg_.ambient_c;
  for (double t : temp_) m = std::max(m, t);
  return m;
}

void ThermalModel::register_stats(StatsRegistry& reg,
                                  const std::string& prefix) const {
  for (std::size_t c = 0; c < temp_.size(); ++c) {
    const std::string p = prefix + "." + std::to_string(c);
    reg.gauge(p + ".current_c", "current core temperature (C)", &temp_[c]);
    reg.formula(p + ".mean_c", "run-average core temperature (C)",
                [this, c] { return hist_[c].mean(); });
    reg.formula(p + ".stddev_c", "core temperature standard deviation (C)",
                [this, c] { return hist_[c].stddev(); });
  }
}

}  // namespace ptb

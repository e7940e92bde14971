#include "core/two_level.hpp"

#include "cpu/core.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

namespace ptb {

TwoLevelController::TwoLevelController(const SimConfig& cfg,
                                       TechniqueKind kind)
    : cfg_(cfg), dvfs_(cfg.dvfs, cfg.power, kind == TechniqueKind::kDfs),
      active_(kind == TechniqueKind::kDvfs || kind == TechniqueKind::kDfs ||
              kind == TechniqueKind::kTwoLevel),
      use_microarch_(kind == TechniqueKind::kTwoLevel) {}

void TwoLevelController::tick(Cycle now, double est_power, double budget,
                              bool enforce, double relax_threshold,
                              Core& core) {
  if (!active_) return;
  dvfs_.tick(now, est_power, budget, enforce);

  if (!use_microarch_) {
    ++level_cycles[0];
    return;
  }
  // Level 2: per-cycle spike removal. The trigger point moves out with the
  // relaxed-accuracy threshold of Section IV.C.
  const std::uint32_t prev_level = level_;
  const double trigger = budget * (1.0 + relax_threshold);
  if (!enforce || est_power <= trigger) {
    level_ = 0;
  } else {
    const double ratio = est_power / trigger;
    if (ratio > 1.30) {
      level_ = 3;  // fetch gating
    } else if (ratio > 1.15) {
      level_ = 2;  // serialized fetch
    } else {
      level_ = 1;  // halved fetch width
    }
  }
  ++level_cycles[level_];
  if (tracer_ && level_ != prev_level) {
    tracer_->emit(TraceEventType::kThrottleLevel, core_, level_, est_power);
  }
  switch (level_) {
    case 0: core.set_fetch_limit(cfg_.core.fetch_width); break;
    case 1: core.set_fetch_limit(cfg_.core.fetch_width / 2); break;
    case 2: core.set_fetch_limit(1); break;
    default: core.set_fetch_limit(0); break;
  }
}

void TwoLevelController::register_stats(StatsRegistry& reg,
                                        const std::string& prefix) const {
  if (!active_) return;
  for (std::size_t l = 0; l < 4; ++l) {
    reg.counter(prefix + ".level_cycles." + std::to_string(l),
                "cycles spent at microarch throttle level " +
                    std::to_string(l),
                &level_cycles[l]);
  }
  reg.gauge_fn(prefix + ".level", "current microarch throttle level",
               [this] { return static_cast<double>(level_); }, 0);
  dvfs_.register_stats(reg, prefix + ".dvfs");
}

}  // namespace ptb

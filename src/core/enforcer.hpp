// Per-core power enforcer: binds a TechniqueKind to its controllers.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "common/types.hpp"
#include "core/two_level.hpp"

namespace ptb {

class Core;
class StatsRegistry;

class PowerEnforcer {
 public:
  PowerEnforcer(const SimConfig& cfg, TechniqueKind kind);

  /// One cycle of local enforcement against `budget`.
  void tick(Cycle now, double est_power, double budget, bool enforce,
            double relax_threshold, Core& core);

  double vdd_ratio() const;
  double freq_ratio() const;
  /// True while a DVFS transition stalls the core.
  bool stalled(Cycle now) const;
  /// True when this technique actually enforces a local budget: kNone and
  /// the CMP-level baselines (thrifty barrier / meeting points) never react
  /// to tick(), so the cycle loop may skip them wholesale.
  bool active() const;

  TechniqueKind kind() const { return kind_; }
  const TwoLevelController& controller() const { return ctrl_; }

  /// Registers the bound controller's stats under `prefix` (src/stats);
  /// no-op for techniques that never enforce (see active()).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  /// Attach/detach the event tracer (src/trace); forwards to the 2-level
  /// controller (DVFS transitions + microarch throttle-level changes).
  void set_tracer(EventTracer* t, std::uint32_t core) {
    ctrl_.set_tracer(t, core);
  }

  // Checkpoint support: the bound controller is the only mutable state.
  void save_state(ByteWriter& w) const { ctrl_.save_state(w); }
  void load_state(ByteReader& r) { ctrl_.load_state(r); }

 private:
  TechniqueKind kind_;
  TwoLevelController ctrl_;
};

}  // namespace ptb

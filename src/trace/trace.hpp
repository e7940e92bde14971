// Structured event-trace recorder for the simulator (the observability
// layer the figures' *dynamics* claims rest on: which cores donate tokens
// during lock vs. barrier spinning, when the dynamic selector flips
// ToOne/ToAll, how DVFS residency tracks the budget).
//
// Design, mirroring the audit hook (src/audit):
//   - zero cost when disabled: emit sites are `if (tracer_) tracer_->...` —
//     one predictable branch per site, no tracer object allocated;
//   - bounded memory: one fixed-size ring per category that overwrites the
//     oldest events and counts the drops (a diagnosable trace of the *end*
//     of a run beats an unbounded one that OOMs it);
//   - read-only: tracing observes the run and never changes a result byte
//     (asserted in tests/trace); TraceConfig is therefore excluded from the
//     config fingerprint, exactly like SimConfig::audit_level;
//   - deterministic: emission order — and hence the serialized trace — is a
//     pure function of (profile, config, seed), byte-identical at any
//     --jobs value (one run is one serial cycle loop).
//
// The recorded EventTrace is carried out of the run by RunResult::trace,
// serialized to a compact binary file, and consumed by the exporters
// (trace/export.hpp: Chrome/Perfetto JSON, CSV), the analyzers
// (trace/analysis.hpp) and the `ptb-trace` CLI (tools/ptb_trace.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace ptb {

/// Event categories; each has its own ring buffer and enable bit.
enum class TraceCategory : std::uint8_t {
  kToken = 0,   // balancer Donate / Grant / Evaporate
  kPolicy,      // dynamic-selector ToOne <-> ToAll switches
  kDvfs,        // DVFS/DFS mode transitions (and their stall windows)
  kSpin,        // per-core spin-phase enter/exit (lock vs. barrier)
  kEnforcer,    // 2-level microarchitectural throttle level changes
  kSync,        // lock acquire/release, barrier arrive/release
  kBudget,      // decimated CMP budget-deficit samples
  kCount,
};

inline constexpr std::uint32_t kNumTraceCategories =
    static_cast<std::uint32_t>(TraceCategory::kCount);

/// Category mask with every category enabled.
inline constexpr std::uint32_t kTraceAll = (1u << kNumTraceCategories) - 1;

inline constexpr std::uint32_t trace_category_bit(TraceCategory c) {
  return 1u << static_cast<std::uint32_t>(c);
}

const char* trace_category_name(TraceCategory c);

/// Parses a comma-separated category list ("token,dvfs,sync"), or "all";
/// returns false (out untouched) on any unknown name or an empty list.
bool parse_trace_categories(std::string_view s, std::uint32_t& out_mask);

/// Renders a mask as the comma-separated list parse_trace_categories reads.
std::string trace_categories_string(std::uint32_t mask);

/// Typed events. The `arg` / `value` meaning per type is documented inline;
/// `core` is the core the event concerns (kNoCore for CMP-level events).
enum class TraceEventType : std::uint8_t {
  // kToken -------------------------------------------------------------
  // Token events identify the balancer pool a grant came from so the
  // analyzer can attribute flows: a kGrant/kEvaporate's arg is the cycle
  // the arriving pool was donated on, OR'd with the donating balancer's
  // pool tag << 48 (tag 0 for the monolithic balancer, cluster index for
  // the clustered one — so clusters never cross-attribute). kDonate's arg
  // is the bare pool tag (its cycle is the event cycle).
  kDonate = 0,      // core=donor, arg=pool tag, value=tokens on the wires
  kGrant,           // core=grantee, value=tokens granted,
                    // arg=donate cycle | pool tag << 48
  kEvaporate,       // core=kNoCore, value=undeliverable tokens,
                    // arg=donate cycle | pool tag << 48
  // kPolicy ------------------------------------------------------------
  kPolicySwitch,    // arg = new_policy | old_policy << 8 (old 0xff on the
                    // first selection); value = spinning cores observed
  // kDvfs --------------------------------------------------------------
  kDvfsTransition,  // core, arg = from_mode << 8 | to_mode,
                    // value = regulator stall window in cycles
  // kSpin --------------------------------------------------------------
  kSpinEnter,       // core, arg = ExecState entered (kLockAcq/kLockRel/
                    //             kBarrier as integers)
  kSpinExit,        // core, arg = ExecState left
  // kEnforcer ----------------------------------------------------------
  kThrottleLevel,   // core, arg = new microarch level (0..3),
                    // value = estimated power that triggered it
  // kSync --------------------------------------------------------------
  kLockAcquire,     // core, arg = lock id
  kLockRelease,     // core, arg = lock id
  kBarrierArrive,   // core, arg = barrier id
  kBarrierRelease,  // core = last arriver, arg = barrier id
  // kBudget ------------------------------------------------------------
  kBudgetSample,    // core=kNoCore, value = estimated CMP power minus the
                    // global budget (negative while under budget)
  kCount,
};

inline constexpr std::uint32_t kNumTraceEventTypes =
    static_cast<std::uint32_t>(TraceEventType::kCount);

TraceCategory trace_event_category(TraceEventType t);
const char* trace_event_name(TraceEventType t);

/// One recorded event; 29 bytes serialized (fields written individually —
/// never the struct at once, padding bytes are indeterminate).
struct TraceEvent {
  Cycle cycle = 0;
  TraceEventType type = TraceEventType::kDonate;
  std::uint32_t core = kNoCore;
  std::uint64_t arg = 0;
  double value = 0.0;
};

/// The immutable result of one traced run: per-category event logs (oldest
/// first, post-overwrite) plus the run metadata the analyzers need.
/// RunResult carries it as a shared_ptr so results stay cheap to move
/// through the RunPool.
struct EventTrace {
  std::uint32_t num_cores = 0;
  std::uint32_t categories = 0;   // mask the run was recorded with
  Cycle end_cycle = 0;            // RunResult::cycles of the traced run
  std::uint32_t wire_latency = 0; // balancer wire latency (0: no balancer)

  struct CategoryLog {
    std::vector<TraceEvent> events;  // oldest -> newest
    std::uint64_t emitted = 0;       // total emits (kept + dropped)
    std::uint64_t dropped = 0;       // overwritten by ring overflow
  };
  CategoryLog logs[kNumTraceCategories];

  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;

  /// Every kept event across categories, sorted by cycle; ties keep the
  /// per-category emission order (category-major), so the result is
  /// deterministic for a deterministic run.
  std::vector<TraceEvent> merged() const;

  /// Compact binary form ("PTBTRACE" magic + version + meta + per-category
  /// logs). Byte-stable: equal traces serialize to equal bytes.
  std::string serialize() const;
  /// Parses serialize() output; returns false (out untouched) on a short,
  /// corrupt or version-mismatched buffer.
  static bool deserialize(std::string_view bytes, EventTrace& out);

  /// serialize() published atomically / read back whole (common/file.hpp).
  bool save(const std::string& path) const;
  static bool load(const std::string& path, EventTrace& out);
};

/// Fixed-capacity ring: keeps the newest `capacity` events, counts drops.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void push(const TraceEvent& e);
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }
  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const { return emitted_ - size_; }

  /// Events oldest -> newest.
  std::vector<TraceEvent> in_order() const;

  // Checkpoint support (sim/checkpoint): events in oldest->newest order +
  // the emit counter. Load rebuilds an equivalent ring (rotated to slot 0 —
  // rotation is unobservable; in_order() and future pushes are identical).
  void save_state(ByteWriter& w) const {
    w.u64(emitted_);
    w.u64(size_);
    const std::vector<TraceEvent> ev = in_order();
    for (const TraceEvent& e : ev) {
      w.u64(e.cycle);
      w.u8(static_cast<std::uint8_t>(e.type));
      w.u32(e.core);
      w.u64(e.arg);
      w.f64(e.value);
    }
  }
  void load_state(ByteReader& r) {
    const std::uint64_t emitted = r.u64();
    const std::uint64_t n = r.u64();
    if (!r.ok() || n > buf_.size() || n > emitted ||
        n > r.remaining() / 29) {  // 29 = serialized TraceEvent bytes
      r.fail();
      return;
    }
    for (TraceEvent& e : buf_) e = TraceEvent{};
    for (std::uint64_t i = 0; i < n; ++i) {
      TraceEvent& e = buf_[i];
      e.cycle = r.u64();
      const std::uint8_t t = r.u8();
      e.core = r.u32();
      e.arg = r.u64();
      e.value = r.f64();
      if (t >= static_cast<std::uint8_t>(TraceEventType::kCount)) {
        r.fail();
        return;
      }
      e.type = static_cast<TraceEventType>(t);
    }
    size_ = n;
    head_ = buf_.empty() ? 0 : n % buf_.size();
    emitted_ = emitted;
  }

 private:
  std::vector<TraceEvent> buf_;
  std::size_t head_ = 0;   // next write slot
  std::size_t size_ = 0;
  std::uint64_t emitted_ = 0;
};

/// The live recorder one CmpSimulator run drives. The CMP cycle loop calls
/// begin_cycle(now) once per cycle; instrumented collaborators (balancer,
/// selector, enforcers, spin trackers, sync state) hold a raw pointer and
/// emit against the current cycle. One tracer belongs to one simulator
/// run and is driven from that run's thread only.
class EventTracer {
 public:
  /// `category_mask` selects what is recorded (bits of TraceCategory);
  /// `capacity` is the per-category ring size in events.
  EventTracer(std::uint32_t category_mask, std::size_t capacity);

  void begin_cycle(Cycle now) { now_ = now; }
  Cycle cycle() const { return now_; }

  bool enabled(TraceCategory c) const {
    return (mask_ & trace_category_bit(c)) != 0;
  }

  /// Records one event at the current cycle (no-op for masked categories).
  void emit(TraceEventType t, std::uint32_t core, std::uint64_t arg,
            double value);

  /// Detaches the recorded trace, stamping the run metadata.
  EventTrace finish(std::uint32_t num_cores, Cycle end_cycle,
                    std::uint32_t wire_latency);

  // Checkpoint support (sim/checkpoint): the per-category rings. Must only
  // be called at a cycle boundary.
  void save_state(ByteWriter& w) const {
    w.u64(now_);
    w.u64(rings_.size());
    for (const TraceRing& ring : rings_) ring.save_state(w);
  }
  void load_state(ByteReader& r) {
    now_ = r.u64();
    if (r.u64() != rings_.size()) {
      r.fail();
      return;
    }
    for (TraceRing& ring : rings_) ring.load_state(r);
  }

 private:
  std::uint32_t mask_;
  Cycle now_ = 0;
  std::vector<TraceRing> rings_;  // one per category
};

}  // namespace ptb

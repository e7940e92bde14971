#include "trace/trace.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/file.hpp"

namespace ptb {

namespace {

constexpr char kMagic[8] = {'P', 'T', 'B', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kFormatVersion = 1;

}  // namespace

const char* trace_category_name(TraceCategory c) {
  switch (c) {
    case TraceCategory::kToken: return "token";
    case TraceCategory::kPolicy: return "policy";
    case TraceCategory::kDvfs: return "dvfs";
    case TraceCategory::kSpin: return "spin";
    case TraceCategory::kEnforcer: return "enforcer";
    case TraceCategory::kSync: return "sync";
    case TraceCategory::kBudget: return "budget";
    case TraceCategory::kCount: break;
  }
  return "?";
}

bool parse_trace_categories(std::string_view s, std::uint32_t& out_mask) {
  std::uint32_t mask = 0;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const std::string_view name = s.substr(0, comma);
    if (name == "all") {
      mask = kTraceAll;
    } else {
      bool found = false;
      for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
        if (name == trace_category_name(static_cast<TraceCategory>(c))) {
          mask |= 1u << c;
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
    if (s.empty()) return false;  // trailing comma
  }
  if (mask == 0) return false;
  out_mask = mask;
  return true;
}

std::string trace_categories_string(std::uint32_t mask) {
  if ((mask & kTraceAll) == kTraceAll) return "all";
  std::string out;
  for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
    if ((mask & (1u << c)) == 0) continue;
    if (!out.empty()) out += ',';
    out += trace_category_name(static_cast<TraceCategory>(c));
  }
  return out;
}

TraceCategory trace_event_category(TraceEventType t) {
  switch (t) {
    case TraceEventType::kDonate:
    case TraceEventType::kGrant:
    case TraceEventType::kEvaporate: return TraceCategory::kToken;
    case TraceEventType::kPolicySwitch: return TraceCategory::kPolicy;
    case TraceEventType::kDvfsTransition: return TraceCategory::kDvfs;
    case TraceEventType::kSpinEnter:
    case TraceEventType::kSpinExit: return TraceCategory::kSpin;
    case TraceEventType::kThrottleLevel: return TraceCategory::kEnforcer;
    case TraceEventType::kLockAcquire:
    case TraceEventType::kLockRelease:
    case TraceEventType::kBarrierArrive:
    case TraceEventType::kBarrierRelease: return TraceCategory::kSync;
    case TraceEventType::kBudgetSample: return TraceCategory::kBudget;
    case TraceEventType::kCount: break;
  }
  PTB_ASSERT(false, "unknown trace event type");
  return TraceCategory::kToken;
}

const char* trace_event_name(TraceEventType t) {
  switch (t) {
    case TraceEventType::kDonate: return "donate";
    case TraceEventType::kGrant: return "grant";
    case TraceEventType::kEvaporate: return "evaporate";
    case TraceEventType::kPolicySwitch: return "policy_switch";
    case TraceEventType::kDvfsTransition: return "dvfs_transition";
    case TraceEventType::kSpinEnter: return "spin_enter";
    case TraceEventType::kSpinExit: return "spin_exit";
    case TraceEventType::kThrottleLevel: return "throttle_level";
    case TraceEventType::kLockAcquire: return "lock_acquire";
    case TraceEventType::kLockRelease: return "lock_release";
    case TraceEventType::kBarrierArrive: return "barrier_arrive";
    case TraceEventType::kBarrierRelease: return "barrier_release";
    case TraceEventType::kBudgetSample: return "budget_sample";
    case TraceEventType::kCount: break;
  }
  return "?";
}

// --- EventTrace -------------------------------------------------------------

std::uint64_t EventTrace::total_events() const {
  std::uint64_t n = 0;
  for (const auto& log : logs) n += log.events.size();
  return n;
}

std::uint64_t EventTrace::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& log : logs) n += log.dropped;
  return n;
}

std::vector<TraceEvent> EventTrace::merged() const {
  std::vector<TraceEvent> all;
  all.reserve(static_cast<std::size_t>(total_events()));
  for (const auto& log : logs)
    all.insert(all.end(), log.events.begin(), log.events.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.cycle < b.cycle;
                   });
  return all;
}

// Fields are written individually through the shared little-endian codec
// (common/bytes.hpp): never a struct at once, so the bytes are stable.
std::string EventTrace::serialize() const {
  ByteWriter w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u32(kNumTraceCategories);
  w.u32(num_cores);
  w.u32(categories);
  w.u64(end_cycle);
  w.u32(wire_latency);
  for (const auto& log : logs) {
    w.u64(log.emitted);
    w.u64(log.dropped);
    w.u64(log.events.size());
    for (const TraceEvent& e : log.events) {
      w.u64(e.cycle);
      w.u8(static_cast<std::uint8_t>(e.type));
      w.u32(e.core);
      w.u64(e.arg);
      w.f64(e.value);
    }
  }
  return w.take();
}

bool EventTrace::deserialize(std::string_view bytes, EventTrace& out) {
  ByteReader r(bytes);
  if (r.raw(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    return false;
  }
  if (r.u32() != kFormatVersion) return false;
  if (r.u32() != kNumTraceCategories) return false;
  EventTrace t;
  t.num_cores = r.u32();
  t.categories = r.u32();
  t.end_cycle = r.u64();
  t.wire_latency = r.u32();
  for (auto& log : t.logs) {
    log.emitted = r.u64();
    log.dropped = r.u64();
    const std::uint64_t n = r.u64();
    // 29 serialized bytes per event; reject before allocating on garbage.
    if (!r.ok() || n > r.remaining() / 29) return false;
    log.events.resize(static_cast<std::size_t>(n));
    for (TraceEvent& e : log.events) {
      e.cycle = r.u64();
      const std::uint8_t type = r.u8();
      if (type >= kNumTraceEventTypes) return false;
      e.type = static_cast<TraceEventType>(type);
      e.core = r.u32();
      e.arg = r.u64();
      e.value = r.f64();
    }
  }
  if (!r.ok() || !r.empty()) return false;
  out = std::move(t);
  return true;
}

bool EventTrace::save(const std::string& path) const {
  return write_file(path, serialize());
}

bool EventTrace::load(const std::string& path, EventTrace& out) {
  std::string bytes;
  return read_file(path, bytes) && deserialize(bytes, out);
}

// --- TraceRing --------------------------------------------------------------

TraceRing::TraceRing(std::size_t capacity) : buf_(capacity) {
  PTB_ASSERT(capacity >= 1, "trace ring needs capacity >= 1");
}

void TraceRing::push(const TraceEvent& e) {
  buf_[head_] = e;
  head_ = (head_ + 1) % buf_.size();
  if (size_ < buf_.size()) ++size_;
  ++emitted_;
}

std::vector<TraceEvent> TraceRing::in_order() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest element: head_ when full, 0 while filling.
  const std::size_t start = size_ == buf_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(buf_[(start + i) % buf_.size()]);
  return out;
}

// --- EventTracer ------------------------------------------------------------

EventTracer::EventTracer(std::uint32_t category_mask, std::size_t capacity)
    : mask_(category_mask & kTraceAll) {
  rings_.reserve(kNumTraceCategories);
  for (std::uint32_t c = 0; c < kNumTraceCategories; ++c)
    rings_.emplace_back(capacity);
}

void EventTracer::emit(TraceEventType t, std::uint32_t core,
                       std::uint64_t arg, double value) {
  const TraceCategory cat = trace_event_category(t);
  if (!enabled(cat)) return;
  rings_[static_cast<std::size_t>(cat)].push(
      TraceEvent{now_, t, core, arg, value});
}

EventTrace EventTracer::finish(std::uint32_t num_cores, Cycle end_cycle,
                               std::uint32_t wire_latency) {
  EventTrace t;
  t.num_cores = num_cores;
  t.categories = mask_;
  t.end_cycle = end_cycle;
  t.wire_latency = wire_latency;
  for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
    t.logs[c].events = rings_[c].in_order();
    t.logs[c].emitted = rings_[c].emitted();
    t.logs[c].dropped = rings_[c].dropped();
  }
  return t;
}

}  // namespace ptb

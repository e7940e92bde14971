// Power Token History Table (PTHT): an 8K-entry, PC-indexed table holding the
// power cost (in tokens) of each static instruction's last execution
// (Section III.B of the paper). Updated at commit, read at fetch to estimate
// per-cycle power without performance counters.
//
// Hot-path layout: the full table (8K x 12B) misses the L1D, and straight-
// line code (spin loops above all) re-looks-up the same handful of PCs every
// cycle. A small direct-mapped inline cache in front of the table keeps
// those repeat lookups L1-resident. The cache is kept coherent by
// construction: its index is derived from the *table* index, so any table
// write that could remap a PC lands on (and replaces) the one inline entry
// that could have cached it — no invalidation scan, no stale reads.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace ptb {

class StatsRegistry;

class Ptht {
 public:
  /// `entries` must be a power of two (paper: 8192).
  explicit Ptht(std::uint32_t entries);

  /// Inline-cache size (power of two; 256 x 16B = 4KB, comfortably L1).
  static constexpr std::size_t kInlineEntries = 256;

  /// Warm-hit fast path: returns true and sets `tokens` when the entry for
  /// `pc` is warm and tag-matching (inline cache first, then the table);
  /// false on a cold or conflict miss, leaving the caller to supply its
  /// own default — computing that default is often the expensive part, so
  /// this keeps it off the hit path.
  bool lookup_hit(Pc pc, double& tokens) const {
    ++lookups;
    const std::size_t ti = index_of(pc);
    InlineEntry& c = inline_cache_[ti & (kInlineEntries - 1)];
    if (c.tag == pc && c.tokens >= 0.0f) {
      tokens = static_cast<double>(c.tokens);
      return true;
    }
    const Entry& e = table_[ti];
    if (e.tokens < 0.0f || e.tag != pc) {
      ++cold_misses;
      return false;
    }
    c.tag = pc;
    c.tokens = e.tokens;
    tokens = static_cast<double>(e.tokens);
    return true;
  }

  /// Estimated tokens for the instruction at `pc`; returns `cold_default`
  /// when the entry is cold or tagged for a different pc.
  double lookup(Pc pc, double cold_default) const {
    double tokens;
    return lookup_hit(pc, tokens) ? tokens : cold_default;
  }

  /// Records the tokens consumed by the committed instruction at `pc`.
  void update(Pc pc, double tokens) {
    ++updates;
    const std::size_t ti = index_of(pc);
    Entry& e = table_[ti];
    e.tag = pc;
    e.tokens = static_cast<float>(tokens);
    // Write-through: replace whatever inline entry aliases this table
    // index (the coherence rule in the header comment).
    InlineEntry& c = inline_cache_[ti & (kInlineEntries - 1)];
    c.tag = pc;
    c.tokens = e.tokens;
  }

  std::uint32_t entries() const {
    return static_cast<std::uint32_t>(table_.size());
  }

  /// Registers this table's counters under `prefix` (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Statistics.
  mutable std::uint64_t lookups = 0;
  mutable std::uint64_t cold_misses = 0;
  std::uint64_t updates = 0;

  // Checkpoint support: the table and the counters. The inline cache is a
  // pure cache (hits and misses through it count identically), so it
  // restarts empty — no observable difference.
  void save_state(ByteWriter& w) const {
    w.u64(table_.size());
    for (const Entry& e : table_) {
      w.u64(e.tag);
      w.f32(e.tokens);
    }
    w.u64(lookups);
    w.u64(cold_misses);
    w.u64(updates);
  }
  void load_state(ByteReader& r) {
    const std::uint64_t n = r.u64();
    if (n != table_.size()) {
      r.fail();
      return;
    }
    for (Entry& e : table_) {
      e.tag = r.u64();
      e.tokens = r.f32();
    }
    inline_cache_.fill(InlineEntry{});
    lookups = r.u64();
    cold_misses = r.u64();
    updates = r.u64();
  }

 private:
  struct Entry {
    Pc tag = 0;
    float tokens = -1.0f;  // <0 == cold
  };
  struct InlineEntry {
    Pc tag = 0;
    float tokens = -1.0f;  // <0 == empty (pc 0 stays checkable)
  };

  std::size_t index_of(Pc pc) const {
    // Instructions are 4-byte aligned in the synthetic ISA.
    return (pc >> 2) & mask_;
  }

  std::vector<Entry> table_;
  std::size_t mask_;
  // Filled from const lookups (it is a cache, not model state).
  mutable std::array<InlineEntry, kInlineEntries> inline_cache_{};
};

}  // namespace ptb

// Core pipeline behaviour driven by scripted micro-op programs.
#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/memory_system.hpp"
#include "noc/mesh.hpp"
#include "power/power_model.hpp"
#include "sync/sync_state.hpp"

namespace ptb {
namespace {

/// Scripted program: plays back a fixed op list, optionally blocking.
class ScriptProgram final : public ThreadProgram {
 public:
  explicit ScriptProgram(std::vector<MicroOp> ops) : ops_(std::move(ops)) {}

  FetchStatus next(MicroOp& out) override {
    if (waiting_) return FetchStatus::kStall;
    if (pos_ >= ops_.size()) return FetchStatus::kFinished;
    out = ops_[pos_++];
    if (out.blocks_generation) waiting_ = true;
    return FetchStatus::kOp;
  }

  void on_value(const MicroOp&, std::uint64_t value) override {
    waiting_ = false;
    last_value_ = value;
    ++values_seen_;
  }

  bool finished() const override {
    return pos_ >= ops_.size() && !waiting_;
  }

  std::uint64_t last_value_ = 0;
  int values_seen_ = 0;

 private:
  std::vector<MicroOp> ops_;
  std::size_t pos_ = 0;
  bool waiting_ = false;
};

MicroOp alu(Pc pc, std::uint8_t dep = 0) {
  MicroOp op;
  op.pc = pc;
  op.cls = OpClass::kIntAlu;
  op.dep1 = dep;
  return op;
}

MicroOp load(Pc pc, Addr a) {
  MicroOp op;
  op.pc = pc;
  op.cls = OpClass::kLoad;
  op.addr = a;
  return op;
}

class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : cfg_(make_cfg()), mesh_(cfg_.noc, 2, 1), mem_(cfg_, mesh_),
        sync_(4, 1, 2), energy_(cfg_.power, 1) {}

  static SimConfig make_cfg() {
    SimConfig c;
    c.num_cores = 2;
    return c;
  }

  /// Functionally warms the instruction lines of [base, base+bytes) for a
  /// core, so timing tests measure the pipeline rather than cold I-misses.
  void warm_code(CoreId c, Pc base, std::uint32_t bytes) {
    for (Addr a = base & ~Addr{63}; a < base + bytes; a += 64) {
      mem_.directory().warm(c, a / 64, /*instruction=*/true, false);
    }
  }

  /// Runs the core until finished or `max` cycles.
  Cycle run_to_completion(Core& core, Cycle max = 100000) {
    Cycle t = 0;
    for (; t < max && !core.finished(); ++t) core.tick(t);
    return t;
  }

  SimConfig cfg_;
  Mesh mesh_;
  MemorySystem mem_;
  SyncState sync_;
  BaseEnergyModel energy_;
};

TEST_F(CoreTest, ExecutesStraightLineCode) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 100; ++i) ops.push_back(alu(0x1000 + i * 4));
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  warm_code(0, 0x1000, 100 * 4);
  const Cycle t = run_to_completion(core);
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(core.committed, 100u);
  EXPECT_LT(t, 200u);  // independent ALU ops: way under 2 CPI
}

TEST_F(CoreTest, DependencyChainSerializes) {
  // 64 ops each depending on the previous: takes >= 64 cycles beyond the
  // parallel case.
  std::vector<MicroOp> chain, parallel;
  for (int i = 0; i < 64; ++i) {
    chain.push_back(alu(0x1000 + i * 4, 1));
    parallel.push_back(alu(0x1000 + i * 4, 0));
  }
  ScriptProgram p1(chain), p2(parallel);
  Core c1(0, cfg_, mem_, sync_, p1, energy_);
  Core c2(1, cfg_, mem_, sync_, p2, energy_);
  warm_code(0, 0x1000, 64 * 4);
  warm_code(1, 0x1000, 64 * 4);
  const Cycle t1 = run_to_completion(c1);
  const Cycle t2 = run_to_completion(c2);
  EXPECT_GT(t1, t2);
  EXPECT_GE(t1, 64u);
}

TEST_F(CoreTest, FetchLimitThrottles) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 200; ++i) ops.push_back(alu(0x1000 + i * 4));
  ScriptProgram p1(ops), p2(ops);
  Core fast(0, cfg_, mem_, sync_, p1, energy_);
  Core slow(1, cfg_, mem_, sync_, p2, energy_);
  warm_code(0, 0x1000, 200 * 4);
  warm_code(1, 0x1000, 200 * 4);
  slow.set_fetch_limit(1);
  const Cycle t_fast = run_to_completion(fast);
  const Cycle t_slow = run_to_completion(slow);
  EXPECT_GT(t_slow, t_fast);
  EXPECT_GE(t_slow, 200u);  // 1 op/cycle at most
}

TEST_F(CoreTest, FetchGateStallsCompletely) {
  std::vector<MicroOp> ops{alu(0x1000)};
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  core.set_fetch_limit(0);
  for (Cycle t = 0; t < 100; ++t) core.tick(t);
  EXPECT_FALSE(core.finished());
  EXPECT_EQ(core.fetched, 0u);
  core.set_fetch_limit(4);
  run_to_completion(core);
  EXPECT_TRUE(core.finished());
}

TEST_F(CoreTest, MispredictCausesFlushBubble) {
  // A mispredicted branch (cold predictor defaults to not-taken; actual
  // taken) must cost at least the refill penalty.
  std::vector<MicroOp> with_branch, without;
  for (int i = 0; i < 8; ++i) with_branch.push_back(alu(0x1000 + i * 4));
  MicroOp br;
  br.pc = 0x2000;
  br.cls = OpClass::kBranch;
  br.branch_taken = true;  // cold gshare predicts not-taken -> mispredict
  with_branch.push_back(br);
  for (int i = 0; i < 8; ++i)
    with_branch.push_back(alu(0x3000 + i * 4));
  without = with_branch;
  without[8].branch_taken = false;  // correctly predicted

  ScriptProgram p1(with_branch), p2(without);
  Core c1(0, cfg_, mem_, sync_, p1, energy_);
  Core c2(1, cfg_, mem_, sync_, p2, energy_);
  const Cycle t_miss = run_to_completion(c1);
  const Cycle t_hit = run_to_completion(c2);
  EXPECT_EQ(c1.flushes, 1u);
  EXPECT_EQ(c2.flushes, 0u);
  EXPECT_GE(t_miss, t_hit + cfg_.core.pipeline_stages - 2);
}

TEST_F(CoreTest, BlockingLoadStallsGeneration) {
  std::vector<MicroOp> ops;
  MicroOp bl = load(0x1000, 0x80000);
  bl.blocks_generation = true;
  ops.push_back(bl);
  ops.push_back(alu(0x1004));
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  const Cycle t = run_to_completion(core);
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(prog.values_seen_, 1);
  // Cold-miss latency (>= DRAM) is on the critical path.
  EXPECT_GE(t, cfg_.mem.dram_latency);
}

TEST_F(CoreTest, SyncRmwAppliesLockSemantics) {
  MicroOp rmw;
  rmw.pc = 0x1000;
  rmw.cls = OpClass::kAtomicRmw;
  rmw.addr = sync_.lock_addr(0);
  rmw.blocks_generation = true;
  rmw.sync = SyncRole::kLockTryAcquire;
  rmw.sync_id = 0;
  ScriptProgram prog({rmw});
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  run_to_completion(core);
  EXPECT_EQ(prog.last_value_, 0u);       // old value: lock was free
  EXPECT_EQ(sync_.read_lock(0), 1u);     // now held
  EXPECT_EQ(sync_.lock_holder(0), 0u);
}

TEST_F(CoreTest, PthtUpdatedAtCommit) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 10; ++i) ops.push_back(alu(0x1000));
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  run_to_completion(core);
  EXPECT_GE(core.ptht().updates, 10u);
  // The stored cost must be at least the instruction's grouped base.
  const double stored = core.ptht().lookup(0x1000, -1.0);
  EXPECT_GE(stored, energy_.grouped_base(OpClass::kIntAlu, 0x1000));
}

TEST_F(CoreTest, IdleWhenNothingToDo) {
  ScriptProgram prog({});
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  core.tick(0);
  EXPECT_TRUE(core.idle());
  EXPECT_TRUE(core.finished());
}

// FNV-1a over raw bytes (doubles hashed by bit pattern).
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  template <class T>
  void mix(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) h = (h ^ c) * 1099511628211ull;
  }
};

/// Deterministic mixed script for the per-tick golden: dependence
/// distances 1-8 and beyond ROB occupancy, every FU class, stores, branches
/// with scripted outcomes (mispredicts), a burst of cold loads (LSQ-full
/// pressure), a blocking load and a lock acquire/release pair.
std::vector<MicroOp> golden_script(const SyncState& sync) {
  std::vector<MicroOp> ops;
  std::uint32_t x = 12345;
  const auto rnd = [&x] {
    x = x * 1664525u + 1013904223u;
    return x >> 8;
  };
  const auto emit_mix = [&](int n, Pc base) {
    for (int i = 0; i < n; ++i) {
      MicroOp op;
      op.pc = base + static_cast<Pc>(i % 256) * 4;
      const std::uint32_t r = rnd() % 16;
      if (r < 5) {
        op.cls = OpClass::kIntAlu;
      } else if (r < 6) {
        op.cls = OpClass::kIntMult;
      } else if (r < 8) {
        op.cls = OpClass::kFpAlu;
      } else if (r < 9) {
        op.cls = OpClass::kFpMult;
      } else if (r < 12) {
        op.cls = OpClass::kLoad;
        op.addr = 0x100000 + static_cast<Addr>(rnd() % 64) * 64;
      } else if (r < 13) {
        op.cls = OpClass::kStore;
        op.addr = 0x100000 + static_cast<Addr>(rnd() % 64) * 64;
      } else {
        op.cls = OpClass::kBranch;
        op.branch_taken = rnd() % 3 == 0;
      }
      op.dep1 = static_cast<std::uint8_t>(rnd() % 9);  // 0..8
      const std::uint32_t d2 = rnd() % 8;
      op.dep2 = d2 == 0 ? 200 : (d2 < 3 ? static_cast<std::uint8_t>(d2) : 0);
      ops.push_back(op);
    }
  };

  emit_mix(400, 0x1000);
  // Cold loads to distinct lines: more than the LSQ holds.
  for (int i = 0; i < 96; ++i) {
    MicroOp ld = load(0x2000 + static_cast<Pc>(i) * 4,
                      0x400000 + static_cast<Addr>(i) * 4096);
    ld.dep1 = static_cast<std::uint8_t>(i % 3);
    ops.push_back(ld);
  }
  emit_mix(200, 0x3000);
  MicroOp bl = load(0x4000, 0x900000);
  bl.blocks_generation = true;
  ops.push_back(bl);
  emit_mix(150, 0x5000);
  MicroOp rmw;
  rmw.pc = 0x6000;
  rmw.cls = OpClass::kAtomicRmw;
  rmw.addr = sync.lock_addr(0);
  rmw.blocks_generation = true;
  rmw.sync = SyncRole::kLockTryAcquire;
  rmw.sync_id = 0;
  ops.push_back(rmw);
  emit_mix(100, 0x7000);
  MicroOp rel;
  rel.pc = 0x6004;
  rel.cls = OpClass::kStore;
  rel.addr = sync.lock_addr(0);
  rel.blocks_generation = true;
  rel.sync = SyncRole::kLockRelease;
  rel.sync_id = 0;
  ops.push_back(rel);
  emit_mix(300, 0x8000);
  return ops;
}

// Pins the core model's per-tick behaviour on its own, independent of the
// CMP loop: every tick's commit count, occupancies, token activity, idle
// flag and stall counters are hashed. Ticks are non-consecutive (the CMP
// skips core ticks under frequency scaling) and the fetch limit is gated
// to 0 for a stretch, as the 2-level controller does.
TEST_F(CoreTest, PerTickGolden) {
  const std::vector<MicroOp> ops = golden_script(sync_);
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  // Warm code everywhere but the last region, so the cold-load burst
  // outruns fetch and fills the LSQ; the last region keeps I-misses.
  for (Pc base : {0x1000, 0x2000, 0x3000, 0x4000, 0x5000, 0x6000, 0x7000}) {
    warm_code(0, base, 1024);
  }
  Fnv fnv;
  Cycle now = 0;
  int tick = 0;
  for (; tick < 20000 && !core.finished(); ++tick) {
    if (tick == 300) core.set_fetch_limit(0);
    if (tick == 420) core.set_fetch_limit(4);
    core.tick(now);
    fnv.mix(core.committed);
    fnv.mix(core.rob_occupancy());
    fnv.mix(core.lsq_occupancy());
    fnv.mix(core.fetch_tokens_exact());
    fnv.mix(core.commit_tokens_exact());
    fnv.mix(core.idle());
    fnv.mix(core.stall_branch);
    fnv.mix(core.stall_front);
    fnv.mix(core.stall_program);
    fnv.mix(core.stall_rob);
    fnv.mix(core.stall_lsq);
    now += (tick % 7 == 3) ? 3 : (tick % 5 == 1 ? 2 : 1);
  }
  ASSERT_TRUE(core.finished());
  EXPECT_EQ(core.committed, ops.size());
  EXPECT_EQ(prog.values_seen_, 3);
  // The script exercises every path it is meant to pin.
  EXPECT_GT(core.flushes, 0u);
  EXPECT_GT(core.stall_lsq, 0u);
  EXPECT_GT(core.stall_program, 0u);
  EXPECT_GT(core.stall_branch, 0u);
  // Recorded before the core's event-driven issue/complete rewrite; both
  // implementations must produce the same per-tick behaviour.
  EXPECT_EQ(tick, 10813);
  EXPECT_EQ(fnv.h, 1291165688424108688ull);
}

// Layout of Core::save_state after the predictor/PTHT/BCT prefix: u64
// head_seq, u32 rob_count, u32 lsq_count, per in-flight op (26-byte
// MicroOp, u64 dispatched_at, u64 done_at), u64 n, n x u64 seq of the
// undelivered blocking ops, then the fetch state.
constexpr std::size_t kOpBytes = 26;
constexpr std::size_t kEntryBytes = kOpBytes + 16;

std::string patched(std::string b, std::size_t pos, std::uint64_t v,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    b[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return b;
}

// A checkpoint's trailer is a checksum, not a MAC: a re-checksummed frame
// can carry any core state, so load_state must reject a window that is
// inconsistent with itself rather than act on it.
TEST_F(CoreTest, LoadStateRejectsInconsistentWindow) {
  // Window: a cold load, an ALU op waiting on it (unissued) and a blocking
  // cold load still awaiting its value.
  MicroOp bl = load(0x1008, 0x600000);
  bl.blocks_generation = true;
  const std::vector<MicroOp> ops{load(0x1000, 0x500000), alu(0x1004, 1), bl};
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  warm_code(0, 0x1000, 64);
  for (Cycle t = 0; t < 10; ++t) core.tick(t);
  ASSERT_EQ(core.rob_occupancy(), 3u);
  ASSERT_EQ(core.lsq_occupancy(), 2u);
  ASSERT_EQ(prog.values_seen_, 0);

  ByteWriter w;
  core.save_state(w);
  const std::string saved = w.data();
  ByteWriter prefix;
  core.predictor().save_state(prefix);
  core.ptht().save_state(prefix);
  core.bct().save_state(prefix);
  const std::size_t base = prefix.data().size();
  const std::size_t lsq_at = base + 12;
  const auto done_at = [&](std::size_t k) {
    return base + 16 + k * kEntryBytes + kOpBytes + 8;
  };
  const std::size_t list_at = base + 16 + 3 * kEntryBytes;
  const std::size_t wbr_at = list_at + 16 + 2 + kOpBytes + 8;

  const auto loads = [&](const std::string& bytes, std::string* resaved) {
    ScriptProgram p(ops);
    Core fresh(0, cfg_, mem_, sync_, p, energy_);
    ByteReader r(bytes);
    fresh.load_state(r);
    if (resaved != nullptr) {
      ByteWriter again;
      fresh.save_state(again);
      *resaved = again.data();
    }
    return r.ok();
  };

  std::string resaved;
  ASSERT_TRUE(loads(saved, &resaved));
  EXPECT_EQ(resaved, saved);
  ByteReader list(std::string_view(saved).substr(list_at));
  ASSERT_EQ(list.u64(), 1u);  // one undelivered blocking op...
  ASSERT_EQ(list.u64(), 2u);  // ...at seq 2

  // LSQ count that does not match the memory ops in the window.
  EXPECT_FALSE(loads(patched(saved, lsq_at, 1, 4), nullptr));
  // Pending-value list naming a seq outside the window, a non-blocking
  // issued op, and a never-issued op.
  EXPECT_FALSE(loads(patched(saved, list_at + 8, 3, 8), nullptr));
  EXPECT_FALSE(loads(patched(saved, list_at + 8, 0, 8), nullptr));
  EXPECT_FALSE(loads(patched(saved, list_at + 8, 1, 8), nullptr));
  // The listed blocking op marked never-issued.
  EXPECT_FALSE(loads(patched(saved, done_at(2), kNeverCycle, 8), nullptr));
  // The same op listed twice (would deliver its value twice).
  std::string twice = patched(saved, list_at, 2, 8);
  twice.insert(list_at + 8, saved.substr(list_at + 8, 8));
  EXPECT_FALSE(loads(twice, nullptr));
  // A mispredict awaiting resolution outside the window.
  std::string wbr = patched(saved, wbr_at, 1, 1);
  EXPECT_FALSE(loads(patched(wbr, wbr_at + 1, 7, 8), nullptr));
  EXPECT_TRUE(loads(patched(wbr, wbr_at + 1, 0, 8), nullptr));
}

TEST_F(CoreTest, RobOccupancyBounded) {
  std::vector<MicroOp> ops;
  // Long-latency loads (cold misses) back up the ROB.
  for (int i = 0; i < 400; ++i)
    ops.push_back(load(0x1000 + i * 4, 0x200000 + i * 4096));
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  warm_code(0, 0x1000, 400 * 4);
  std::uint32_t max_occ = 0;
  for (Cycle t = 0; t < 20000 && !core.finished(); ++t) {
    core.tick(t);
    max_occ = std::max(max_occ, core.rob_occupancy());
  }
  EXPECT_LE(max_occ, cfg_.core.rob_entries);
  EXPECT_GT(max_occ, cfg_.core.lsq_entries / 2);  // misses do back it up
}

}  // namespace
}  // namespace ptb

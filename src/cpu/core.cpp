#include "cpu/core.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "stats/stats.hpp"

namespace ptb {

namespace {
// Expected ROB residency added to cold PTHT estimates (cycles).
constexpr double kColdResidencyGuess = 16.0;
// Issue-queue scan window past the oldest unissued op.
constexpr std::uint64_t kIssueScanWindow = 32;
}  // namespace

Core::Core(CoreId id, const SimConfig& cfg, MemorySystem& mem,
           SyncState& sync, ThreadProgram& program,
           const BaseEnergyModel& energy)
    : id_(id), cfg_(cfg), mem_(mem), sync_(sync), program_(program),
      energy_(energy), predictor_(cfg.core), fus_(cfg.core),
      ptht_(cfg.power.ptht_entries), rob_(cfg.core.rob_entries),
      rob_mask_((cfg.core.rob_entries & (cfg.core.rob_entries - 1)) == 0
                    ? cfg.core.rob_entries - 1
                    : 0),
      fetch_limit_(cfg.core.fetch_width) {}

bool Core::deps_ready(std::uint64_t seq, const MicroOp& op) const {
  // seq < head_seq_ + dist <=> seq - dist < head_seq_: the producer is
  // already committed (and the test also guards the unsigned underflow).
  const std::uint8_t d1 = op.dep1;
  if (d1 != 0 && seq >= head_seq_ + d1 &&
      !rob_[rob_index(seq - d1)].completed) {
    return false;
  }
  const std::uint8_t d2 = op.dep2;
  if (d2 != 0 && seq >= head_seq_ + d2 &&
      !rob_[rob_index(seq - d2)].completed) {
    return false;
  }
  return true;
}

void Core::deliver_value(const MicroOp& op) {
  std::uint64_t value = 0;
  switch (op.sync) {
    case SyncRole::kLockTestLoad:
      value = sync_.read_lock(op.sync_id);
      break;
    case SyncRole::kLockTryAcquire:
      value = sync_.try_acquire(op.sync_id, id_);
      break;
    case SyncRole::kLockRelease:
      sync_.release(op.sync_id, id_);
      break;
    case SyncRole::kBarrierArrive:
      value = sync_.arrive(op.sync_id, id_);
      break;
    case SyncRole::kBarrierSpinLoad:
      value = sync_.read_sense(op.sync_id);
      break;
    case SyncRole::kNone:
      break;  // plain blocking load: value is irrelevant to the generator
  }
  program_.on_value(op, value);
}

void Core::process_completions(Cycle now) {
  while (!completions_.empty() && completions_.top().first <= now) {
    const std::uint64_t seq = completions_.top().second;
    completions_.pop();
    RobEntry& e = entry(seq);
    e.completed = true;
    if (e.op.blocks_generation) deliver_value(e.op);
    if (waiting_branch_resolve_ && seq == mispredict_seq_) {
      // The front end refills after resolution (14-stage pipeline).
      waiting_branch_resolve_ = false;
      fetch_blocked_until_ =
          std::max(fetch_blocked_until_,
                   e.complete_at + cfg_.core.pipeline_stages);
    }
  }
}

void Core::do_commit(Cycle now) {
  for (std::uint32_t n = 0; n < cfg_.core.commit_width && rob_count_ > 0;
       ++n) {
    RobEntry& e = entry(head_seq_);
    if (!e.completed || e.complete_at > now) break;
    // Power-token accounting at commit: base cost + ROB residency
    // (Section III.B). The PTHT stores the last execution's cost.
    const double residency =
        static_cast<double>(now - e.dispatched_at) *
        cfg_.power.residency_token;
    const BaseCost& bc = base_cost(e.op.cls, e.op.pc);
    ptht_.update(e.op.pc, bc.grouped + residency);
    commit_exact_ += bc.exact + residency;
    bct_.on_commit(e.op);
    if (e.op.is_memory()) --lsq_count_;
    ++head_seq_;
    --rob_count_;
    ++committed;
  }
}

void Core::do_issue(Cycle now) {
  fus_.begin_cycle();
  // Advance the cursor past committed/issued prefix.
  if (issue_cursor_ < head_seq_) issue_cursor_ = head_seq_;
  while (issue_cursor_ < head_seq_ + rob_count_ &&
         entry(issue_cursor_).issued) {
    ++issue_cursor_;
  }
  std::uint32_t issued = 0;
  const std::uint32_t issue_width = cfg_.core.issue_width;
  const std::uint64_t tail = head_seq_ + rob_count_;
  const std::uint64_t scan_end =
      std::min(tail, issue_cursor_ + kIssueScanWindow);
  for (std::uint64_t seq = issue_cursor_;
       seq < scan_end && issued < issue_width; ++seq) {
    RobEntry& e = entry(seq);
    if (e.issued) continue;
    if (!deps_ready(seq, e.op)) continue;
    if (!fus_.try_issue(e.op.cls)) continue;

    Cycle complete_at;
    if (e.op.is_memory()) {
      MemAccessType type;
      switch (e.op.cls) {
        case OpClass::kLoad: type = MemAccessType::kLoad; break;
        case OpClass::kStore: type = MemAccessType::kStore; break;
        default: type = MemAccessType::kAtomicRmw; break;
      }
      // Plain stores retire into the store buffer; the write itself
      // proceeds in the background (its protocol work is already timed).
      const bool plain_store =
          (e.op.cls == OpClass::kStore && e.op.sync == SyncRole::kNone);
      // +1 cycle of address generation before the cache access.
      const MemAccessResult r = mem_.access(id_, type, e.op.addr, now + 1);
      complete_at = plain_store ? now + 1 : r.done;
    } else {
      complete_at = now + fus_.latency(e.op.cls);
    }
    e.issued = true;
    e.complete_at = complete_at;
    completions_.emplace(complete_at, seq);
    ++issued;
  }
}

void Core::do_fetch(Cycle now) {
  if (program_finished_ && !has_pending_op_) return;
  if (waiting_branch_resolve_) {
    ++stall_branch;
    return;
  }
  if (now < fetch_blocked_until_) {
    ++stall_front;
    return;
  }

  const std::uint32_t width =
      std::min(fetch_limit_, cfg_.core.fetch_width);
  bool icache_checked = false;
  std::uint32_t dispatched = 0;
  for (std::uint32_t n = 0; n < width; ++n) {
    if (rob_count_ >= rob_.size()) {  // ROB full
      if (dispatched == 0) ++stall_rob;
      break;
    }

    MicroOp op;
    if (has_pending_op_) {
      op = pending_op_;
      has_pending_op_ = false;
    } else {
      MicroOp fresh;
      const auto st = program_.next(fresh);
      if (st == ThreadProgram::FetchStatus::kFinished) {
        program_finished_ = true;
        break;
      }
      if (st == ThreadProgram::FetchStatus::kStall) {
        if (dispatched == 0) ++stall_program;
        break;
      }
      op = fresh;
    }

    // LSQ occupancy bound.
    if (op.is_memory() && lsq_count_ >= cfg_.core.lsq_entries) {
      pending_op_ = op;
      has_pending_op_ = true;
      if (dispatched == 0) ++stall_lsq;
      break;
    }

    // One L1I probe per fetch group; a miss stalls the front end until the
    // fill returns.
    if (!icache_checked) {
      icache_checked = true;
      const MemAccessResult r =
          mem_.access(id_, MemAccessType::kIFetch, op.pc, now);
      if (!r.l1_hit) {
        pending_op_ = op;
        has_pending_op_ = true;
        fetch_blocked_until_ = r.done;
        break;
      }
    }

    // Dispatch.
    const std::uint64_t seq = head_seq_ + rob_count_;
    RobEntry& e = entry(seq);
    e.op = op;
    e.dispatched_at = now;
    e.complete_at = kNeverCycle;
    e.issued = false;
    e.completed = false;
    ++rob_count_;
    if (op.is_memory()) ++lsq_count_;
    ++fetched;
    ++dispatched;

    const BaseCost& bc = base_cost(op.cls, op.pc);
    fetch_exact_ += bc.exact;
    if (estimate_fetch_) {
      // Lazy cold default: the grouped cost is only consulted on a PTHT
      // miss, so the warm path is a single inline-cache probe.
      double est;
      fetch_est_ += ptht_.lookup_hit(op.pc, est)
                        ? est
                        : bc.grouped + kColdResidencyGuess;
    }

    if (op.is_branch()) {
      const bool predicted = predictor_.predict(op.pc);
      predictor_.update(op.pc, op.branch_taken);
      if (predicted != op.branch_taken) {
        ++flushes;
        waiting_branch_resolve_ = true;
        mispredict_seq_ = seq;
        break;  // no wrong-path fetch; the bubble lasts until resolve+refill
      }
    }
  }
}

std::string Core::debug_string(Cycle now) const {
  char buf[256];
  const RobEntry* head = rob_count_ ? &rob_[rob_index(head_seq_)] : nullptr;
  std::snprintf(
      buf, sizeof(buf),
      "core%u rob=%u lsq=%u progfin=%d pend=%d fblock=%llu wbr=%d "
      "head={cls=%d issued=%d done=%d at=%llu} now=%llu",
      id_, rob_count_, lsq_count_, program_finished_ ? 1 : 0,
      has_pending_op_ ? 1 : 0,
      static_cast<unsigned long long>(fetch_blocked_until_),
      waiting_branch_resolve_ ? 1 : 0, head ? static_cast<int>(head->op.cls) : -1,
      head ? head->issued : 0, head ? head->completed : 0,
      head ? static_cast<unsigned long long>(head->complete_at) : 0,
      static_cast<unsigned long long>(now));
  return buf;
}

void Core::register_stats(StatsRegistry& reg,
                          const std::string& prefix) const {
  reg.counter(prefix + ".committed", "micro-ops committed", &committed);
  reg.counter(prefix + ".fetched", "micro-ops fetched", &fetched);
  reg.counter(prefix + ".flushes", "pipeline flushes (mispredicts)",
              &flushes);
  reg.counter(prefix + ".ticks", "core-clock cycles executed", &ticks);
  reg.counter(prefix + ".stall.branch",
              "fetch ticks lost to mispredict resolution", &stall_branch);
  reg.counter(prefix + ".stall.front", "fetch ticks lost to I-miss/refill",
              &stall_front);
  reg.counter(prefix + ".stall.program", "fetch ticks lost to blocking ops",
              &stall_program);
  reg.counter(prefix + ".stall.rob", "fetch ticks lost to a full ROB",
              &stall_rob);
  reg.counter(prefix + ".stall.lsq", "fetch ticks lost to a full LSQ",
              &stall_lsq);
  reg.gauge_fn(prefix + ".rob.occupancy", "instructions resident in the ROB",
               [this] { return static_cast<double>(rob_count_); }, 0);
  reg.gauge_fn(prefix + ".lsq.occupancy", "memory ops resident in the ROB",
               [this] { return static_cast<double>(lsq_count_); }, 0);
  ptht_.register_stats(reg, prefix + ".ptht");
}

void Core::tick(Cycle now) {
  ++ticks;
  fetch_exact_ = 0.0;
  fetch_est_ = 0.0;
  commit_exact_ = 0.0;
  const std::uint32_t rob_before = rob_count_;

  process_completions(now);
  do_commit(now);
  do_issue(now);
  do_fetch(now);

  idle_ = (rob_before == 0 && rob_count_ == 0);
}

void Core::save_state(ByteWriter& w) const {
  predictor_.save_state(w);
  ptht_.save_state(w);
  bct_.save_state(w);
  // In-flight ROB window: sequence numbers [head_seq_, head_seq_+rob_count_).
  w.u64(head_seq_);
  w.u32(rob_count_);
  w.u32(lsq_count_);
  for (std::uint64_t s = head_seq_; s < head_seq_ + rob_count_; ++s) {
    const RobEntry& e = rob_[rob_index(s)];
    save_microop(w, e.op);
    w.u64(e.dispatched_at);
    w.u64(e.complete_at);
    w.boolean(e.issued);
    w.boolean(e.completed);
  }
  // Completion events, drained from a copy in heap order: pop order is a
  // deterministic function of the (cycle, seq) keys, which are unique.
  {
    auto copy = completions_;
    w.u64(copy.size());
    while (!copy.empty()) {
      w.u64(copy.top().first);
      w.u64(copy.top().second);
      copy.pop();
    }
  }
  w.boolean(program_finished_);
  w.boolean(has_pending_op_);
  save_microop(w, pending_op_);
  w.u64(fetch_blocked_until_);
  w.boolean(waiting_branch_resolve_);
  w.u64(mispredict_seq_);
  w.u32(fetch_limit_);
  w.u64(issue_cursor_);
  w.u64(committed);
  w.u64(fetched);
  w.u64(flushes);
  w.u64(ticks);
  w.u64(stall_branch);
  w.u64(stall_front);
  w.u64(stall_program);
  w.u64(stall_rob);
  w.u64(stall_lsq);
  w.u64(finish_cycle);
}

void Core::load_state(ByteReader& r) {
  predictor_.load_state(r);
  ptht_.load_state(r);
  bct_.load_state(r);
  head_seq_ = r.u64();
  const std::uint32_t nrob = r.u32();
  const std::uint32_t nlsq = r.u32();
  if (!r.ok() || nrob > rob_.size() || nlsq > nrob) {
    r.fail();
    return;
  }
  for (RobEntry& e : rob_) e = RobEntry{};
  rob_count_ = nrob;
  lsq_count_ = nlsq;
  for (std::uint64_t s = head_seq_; s < head_seq_ + rob_count_; ++s) {
    RobEntry& e = rob_[rob_index(s)];
    if (!load_microop(r, e.op)) return;
    e.dispatched_at = r.u64();
    e.complete_at = r.u64();
    e.issued = r.boolean();
    e.completed = r.boolean();
  }
  completions_ = decltype(completions_)();
  const std::uint64_t nc = r.u64();
  if (nc > r.remaining() / 16) {
    r.fail();
    return;
  }
  for (std::uint64_t i = 0; i < nc; ++i) {
    const Cycle at = r.u64();
    const std::uint64_t seq = r.u64();
    completions_.emplace(at, seq);
  }
  program_finished_ = r.boolean();
  has_pending_op_ = r.boolean();
  if (!load_microop(r, pending_op_)) return;
  fetch_blocked_until_ = r.u64();
  waiting_branch_resolve_ = r.boolean();
  mispredict_seq_ = r.u64();
  fetch_limit_ = r.u32();
  issue_cursor_ = r.u64();
  committed = r.u64();
  fetched = r.u64();
  flushes = r.u64();
  ticks = r.u64();
  stall_branch = r.u64();
  stall_front = r.u64();
  stall_program = r.u64();
  stall_rob = r.u64();
  stall_lsq = r.u64();
  finish_cycle = r.u64();
}

}  // namespace ptb

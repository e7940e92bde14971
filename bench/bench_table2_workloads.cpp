// Table 2 of the paper: the evaluated benchmarks and input working sets,
// plus measured properties of each synthetic instruction stream (so the
// catalog is verifiable, not just declarative).
#include "bench_util.hpp"

#include <algorithm>

#include "common/table.hpp"
#include "sync/spin_tracker.hpp"
#include "workloads/program.hpp"

using namespace ptb;

void bench::bench_table2_workloads(BenchContext& ctx) {
  Table table({"benchmark", "input size", "iters", "kops/iter", "locks",
               "cs/1k-ops", "imbalance", "mem %", "branch %"});
  // Short single-thread stream drives, far cheaper than a simulation —
  // runs on the calling thread regardless of --jobs.
  for (const auto& p : benchmark_suite()) {
    // Measure the actual emitted mix over a short single-thread drive.
    SyncState sync(std::max(1u, p.num_locks), 1, 1);
    SpinTracker tracker;
    SyntheticProgram prog(p, 0, 1, sync, tracker, 1);
    std::uint64_t mem = 0, branch = 0, total = 0;
    MicroOp op;
    while (total < 20000) {
      const auto st = prog.next(op);
      if (st == ThreadProgram::FetchStatus::kFinished) break;
      if (st == ThreadProgram::FetchStatus::kStall) {
        // Feed sync values directly (single thread: locks always free,
        // barriers trivially release).
        continue;
      }
      ++total;
      if (op.is_memory()) ++mem;
      if (op.is_branch()) ++branch;
      if (op.blocks_generation) {
        std::uint64_t v = 0;
        switch (op.sync) {
          case SyncRole::kLockTryAcquire:
            v = sync.try_acquire(op.sync_id, 0);
            break;
          case SyncRole::kLockRelease: sync.release(op.sync_id, 0); break;
          case SyncRole::kBarrierArrive: v = sync.arrive(op.sync_id); break;
          case SyncRole::kLockTestLoad: v = sync.read_lock(op.sync_id); break;
          case SyncRole::kBarrierSpinLoad:
            v = sync.read_sense(op.sync_id);
            break;
          case SyncRole::kNone: break;
        }
        prog.on_value(op, v);
      }
    }
    const auto row = table.add_row();
    table.set(row, 0, p.name);
    table.set(row, 1, p.input_desc);
    table.set(row, 2, static_cast<std::int64_t>(p.iterations));
    table.set(row, 3, static_cast<double>(p.ops_per_iteration) / 1000.0, 0);
    table.set(row, 4, static_cast<std::int64_t>(p.num_locks));
    table.set(row, 5, p.cs_per_1k_ops, 1);
    table.set(row, 6, p.imbalance, 2);
    table.set(row, 7, 100.0 * static_cast<double>(mem) /
                          static_cast<double>(total), 1);
    table.set(row, 8, 100.0 * static_cast<double>(branch) /
                          static_cast<double>(total), 1);
  }
  ctx.show(table, "SPLASH-2 + PARSEC workload catalog (measured stream mix)");
}

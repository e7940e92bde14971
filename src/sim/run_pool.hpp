// Parallel experiment runner: a fixed-size pool of std::thread workers that
// fans independent simulation runs out across the host's cores and hands the
// results back in deterministic submission order.
//
// Every (profile, technique, seed) cell of a paper figure is an independent,
// seed-deterministic simulation — the same embarrassingly parallel shape the
// simulated workloads themselves have. The pool exploits it without touching
// the simulator: each task constructs its own CmpSimulator, so no simulator
// state is ever shared between host threads.
//
// Determinism contract: results are indexed by submission order, never by
// completion order, and each task is a pure function of its inputs. A batch
// run with 1 worker and with N workers therefore produces bit-identical
// result vectors (asserted in tests/sim/run_pool_test.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sim/cmp.hpp"

namespace ptb {

class RunPool {
 public:
  /// A unit of work: any callable producing one RunResult. Tasks must be
  /// independent (no ordering between tasks of one batch is guaranteed
  /// beyond the result ordering).
  using Task = std::function<RunResult()>;

  /// Spawns `jobs` worker threads (0 = default_jobs()). Workers persist for
  /// the pool's lifetime and sleep when the queue is empty.
  explicit RunPool(unsigned jobs = 0);

  /// Joins the workers. Pending tasks are completed first (the destructor
  /// drains the queue like wait_all()).
  ~RunPool();

  RunPool(const RunPool&) = delete;
  RunPool& operator=(const RunPool&) = delete;

  /// Enqueues a task; returns its index in the current batch. Thread-safe,
  /// but batches are normally built from one thread (the figure driver).
  std::size_t submit(Task task);

  /// Blocks until every task submitted since the last wait_all() has
  /// finished, then returns their results in submission order and resets
  /// the batch (the pool is immediately reusable).
  std::vector<RunResult> wait_all();

  /// Number of worker threads.
  unsigned jobs() const { return static_cast<unsigned>(workers_.size()); }

  /// The --jobs default: the host's hardware concurrency, at least 1.
  static unsigned default_jobs();

 private:
  void worker_loop();

  // Lock discipline is proven at compile time by clang -Wthread-safety
  // (see common/thread_annotations.hpp): every member below is only
  // touched while mu_ is held; tasks run with the lock dropped.
  Mutex mu_;
  // condition_variable_any: waits on the annotated MutexLock (BasicLockable)
  // so the capability accounting survives the wait.
  std::condition_variable_any work_cv_;  // signals workers: task ready / stop
  std::condition_variable_any done_cv_;  // signals wait_all: batch complete
  // Current batch, by submission index.
  std::vector<Task> tasks_ PTB_GUARDED_BY(mu_);
  // First not-yet-claimed task.
  std::size_t next_task_ PTB_GUARDED_BY(mu_) = 0;
  // Finished tasks in this batch.
  std::size_t completed_ PTB_GUARDED_BY(mu_) = 0;
  // Slot per task, by submission index.
  std::vector<RunResult> results_ PTB_GUARDED_BY(mu_);
  bool stop_ PTB_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace ptb

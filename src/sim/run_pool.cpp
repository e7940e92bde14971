#include "sim/run_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace ptb {

unsigned RunPool::default_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

RunPool::RunPool(unsigned jobs) {
  if (jobs == 0) jobs = default_jobs();
  workers_.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

RunPool::~RunPool() {
  {
    MutexLock lock(mu_);
    // Explicit wait loops instead of the predicate overload throughout
    // this file: a predicate lambda is analyzed as its own function by
    // -Wthread-safety and would not be known to hold mu_.
    while (completed_ != tasks_.size()) done_cv_.wait(lock);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t RunPool::submit(Task task) {
  std::size_t index;
  {
    MutexLock lock(mu_);
    index = tasks_.size();
    tasks_.push_back(std::move(task));
    results_.resize(tasks_.size());
  }
  work_cv_.notify_one();
  return index;
}

std::vector<RunResult> RunPool::wait_all() {
  MutexLock lock(mu_);
  while (completed_ != tasks_.size()) done_cv_.wait(lock);
  std::vector<RunResult> out = std::move(results_);
  tasks_.clear();
  results_.clear();
  next_task_ = 0;
  completed_ = 0;
  return out;
}

void RunPool::worker_loop() {
  MutexLock lock(mu_);
  for (;;) {
    while (!(stop_ || next_task_ < tasks_.size())) work_cv_.wait(lock);
    if (next_task_ >= tasks_.size()) {
      PTB_ASSERT(stop_, "worker woke with no work and no stop");
      return;
    }
    const std::size_t index = next_task_++;
    // Run the task unlocked; the result is written back under the lock, so
    // submit()'s concurrent resize of results_ cannot race with the write.
    Task task = std::move(tasks_[index]);
    lock.unlock();
    RunResult result = task();
    lock.lock();
    results_[index] = std::move(result);
    if (++completed_ == tasks_.size()) done_cv_.notify_all();
  }
}

}  // namespace ptb

#include "sim/run_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sim/experiment.hpp"
#include "sim/reporting.hpp"
#include "workloads/suite.hpp"

namespace ptb {
namespace {

// The determinism contract (DESIGN.md "Experiment execution"): results come
// back in submission order, never completion order.
TEST(RunPool, ResultsInSubmissionOrder) {
  RunPool pool(4);
  constexpr std::size_t kTasks = 64;
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.submit([i] {
      RunResult r;
      r.benchmark = "task" + std::to_string(i);
      r.cycles = i;
      return r;
    });
  }
  const std::vector<RunResult> results = pool.wait_all();
  ASSERT_EQ(results.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(results[i].cycles, i);
    EXPECT_EQ(results[i].benchmark, "task" + std::to_string(i));
  }
}

TEST(RunPool, ReusableAcrossBatches) {
  RunPool pool(2);
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 5; ++i) {
      pool.submit([batch, i] {
        RunResult r;
        r.cycles = static_cast<Cycle>(batch * 100 + i);
        return r;
      });
    }
    const auto results = pool.wait_all();
    ASSERT_EQ(results.size(), 5u);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(results[i].cycles, static_cast<Cycle>(batch * 100 + i));
    }
  }
}

TEST(RunPool, WaitAllOnEmptyBatchReturnsEmpty) {
  RunPool pool(2);
  EXPECT_TRUE(pool.wait_all().empty());
}

// submit() is documented thread-safe: a non-main thread may append to a
// batch that is already in flight (workers mid-task, queue half-drained).
// The batch must absorb the late tasks and wait_all() must still hand every
// result back by submission index.
TEST(RunPool, SubmitRacesInFlightBatchFromSecondThread) {
  RunPool pool(2);
  std::atomic<bool> release{false};
  for (std::uint64_t i = 0; i < 4; ++i) {
    pool.submit([&release, i] {
      // Hold the workers mid-task until the racing submitter is done, so
      // the late submits genuinely overlap an in-flight batch.
      while (!release.load(std::memory_order_acquire))
        std::this_thread::yield();
      RunResult r;
      r.cycles = i;
      return r;
    });
  }
  std::vector<std::size_t> extra_index(4);
  std::thread submitter([&pool, &extra_index, &release] {
    for (std::uint64_t i = 0; i < 4; ++i) {
      extra_index[i] = pool.submit([i] {
        RunResult r;
        r.cycles = 100 + i;
        return r;
      });
    }
    release.store(true, std::memory_order_release);
  });
  submitter.join();
  const std::vector<RunResult> results = pool.wait_all();
  ASSERT_EQ(results.size(), 8u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].cycles, i);
    ASSERT_LT(extra_index[i], results.size());
    EXPECT_EQ(results[extra_index[i]].cycles, 100 + i);
  }
}

TEST(RunPool, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(RunPool::default_jobs(), 1u);
  RunPool pool;  // jobs = 0 -> default
  EXPECT_GE(pool.jobs(), 1u);
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.num_cores, b.num_cores);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.aopb, b.aopb);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.spin_energy, b.spin_energy);
  EXPECT_EQ(a.total_committed, b.total_committed);
  EXPECT_EQ(a.tokens_donated, b.tokens_donated);
  EXPECT_EQ(a.tokens_granted, b.tokens_granted);
  EXPECT_EQ(a.dvfs_transitions, b.dvfs_transitions);
}

// Each simulation is a pure function of (profile, config, seed), so a
// 1-worker pool and an N-worker pool must produce bit-identical results --
// this is the property that lets `--jobs N` match `--jobs 1` byte for byte.
TEST(RunPool, OneWorkerAndManyWorkersBitIdentical) {
  const std::vector<TechniqueSpec> techs = standard_techniques(PtbPolicy::kToAll);
  const auto& fft = benchmark_by_name("fft");
  const auto& black = benchmark_by_name("blackscholes");

  auto run_with = [&](unsigned jobs) {
    RunPool pool(jobs);
    for (const auto* p : {&fft, &black}) {
      for (const auto& t : techs) {
        pool.submit([p, cfg = make_sim_config(4, t)] {
          return run_one(*p, cfg);
        });
      }
    }
    return pool.wait_all();
  };

  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(serial[i], parallel[i]);
  }
}

// The suite-level wrappers and the JSON exporter must also be worker-count
// invariant: identical grids, and byte-identical serialized JSON.
TEST(RunPool, SuiteGridAndJsonWorkerCountInvariant) {
  const bench::FigureRow rows[] = {
      {"probe", "Probe", "4-core naive grid", [](bench::BenchContext& ctx) {
         FigureGrid g = run_suite_grid(4, naive_techniques(), ctx.run_fn());
         g.append_average();
         ctx.show_energy_aopb(g, "determinism probe");
       }}};

  auto grid_json_with = [&](unsigned jobs) {
    RunPool pool(jobs);
    BaseRunCache cache;
    return bench::render_rows(rows, pool, cache)[0].json;
  };

  const std::string j1 = grid_json_with(1);
  const std::string j4 = grid_json_with(4);
  EXPECT_EQ(j1, j4);
}

// Hammer one cache key from many threads: every caller must observe the same
// result object, and the underlying simulation must run exactly once per
// distinct (name, cores, seed) key.
TEST(BaseRunCache, ConcurrentGetComputesOncePerKey) {
  BaseRunCache cache;
  const auto& profile = benchmark_by_name("blackscholes");
  constexpr unsigned kThreads = 8;
  std::vector<const RunResult*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < static_cast<int>(kThreads)) {
      }  // start roughly together
      seen[t] = &cache.get(profile, 4);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.computed(), 1u);
  for (unsigned t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);  // same cached entry, not a copy
  }
  // A different core count or seed is a distinct key.
  cache.get(profile, 8);
  cache.get(profile, 4, /*seed=*/2);
  EXPECT_EQ(cache.computed(), 3u);
  // Re-reads stay cached.
  cache.get(profile, 4);
  EXPECT_EQ(cache.computed(), 3u);
}

// find() never simulates and never shows a result before get() has
// written it: a reader polling find() while a worker computes the key sees
// null, then the finished entry (TSan checks the publication edge).
TEST(BaseRunCache, FindSeesOnlyFinishedResults) {
  BaseRunCache cache;
  const auto& profile = benchmark_by_name("blackscholes");
  const SimConfig cfg = make_sim_config(4, base_technique());
  EXPECT_EQ(cache.find(profile, cfg), nullptr);
  const RunResult* got = nullptr;
  std::thread worker([&] { got = &cache.get(profile, cfg); });
  const RunResult* seen = nullptr;
  while ((seen = cache.find(profile, cfg)) == nullptr) {
    std::this_thread::yield();
  }
  const Cycle cycles = seen->cycles;
  worker.join();
  EXPECT_EQ(seen, got);
  EXPECT_EQ(cycles, got->cycles);
  EXPECT_GT(cycles, 0u);
  EXPECT_EQ(cache.computed(), 1u);
}

}  // namespace
}  // namespace ptb

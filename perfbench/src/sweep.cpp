// `sweep`: the Figure 9 scaling grid built from the public pieces — the
// 14-benchmark suite at 2/4/8/16 cores under the base case, DVFS, DFS,
// 2Level and PTB+2Level (ToOne and ToAll), submitted to one RunPool with
// two workers and one BaseRunCache per grid. It keeps the figure binary's
// structure: one wait_all batch per (cores, technique set), the base runs
// submitted first through the cache. The tasks are this file's own
// lambdas, so the traced run can time each one (run time, queue wait,
// worker, batch) without instrumenting the pool.
#include <array>
#include <string>
#include <thread>

#include "common/format.hpp"
#include "common/json.hpp"
#include "perfbench.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

constexpr unsigned kWorkers = 2;
constexpr std::array<std::uint32_t, 4> kCores = {2, 4, 8, 16};
// The probe variant runs the same grid over the first few benchmarks.
constexpr std::size_t kProbeBenchmarks = 3;
constexpr std::size_t kMinPasses = 3;
constexpr int kSetupSamplesPerPass = 5;

const char* const kMovesPool = "wall_s, ops_per_s, sim_mcps @ sweep";

enum class TaskKind { kBaseRun, kBaseLookup, kCell };

struct TaskRec {
  TaskKind kind = TaskKind::kCell;
  std::uint32_t cores = 0;
  std::size_t batch = 0;
  double start_ms = 0.0;  // since the batch was submitted
  double end_ms = 0.0;
  std::thread::id worker;
  double core_cycles = 0.0;
  bool hit_max_cycles = false;
};

struct BatchRec {
  double wall_ms = 0.0;
};

// One grid: the energy and AoPB table rows in figure order.
struct Pass {
  double wall_s = 0.0;
  std::vector<TaskRec> tasks;
  std::vector<BatchRec> batches;
  std::vector<std::vector<std::string>> energy_rows, aopb_rows;
  std::size_t cache_gets = 0;
  std::size_t cache_computed = 0;
};

class Grid {
 public:
  Grid(ptb::RunPool& pool, std::vector<const ptb::WorkloadProfile*> profiles,
       std::uint64_t seed)
      : pool_(pool), profiles_(std::move(profiles)), seed_(seed) {}

  Pass run() {
    Pass pass;
    ptb::BaseRunCache cache;
    const auto t0 = Clock::now();
    for (std::uint32_t cores : kCores) {
      const auto naive = averages(cores, ptb::naive_techniques(), true, cache, pass);
      for (ptb::PtbPolicy policy : {ptb::PtbPolicy::kToOne, ptb::PtbPolicy::kToAll}) {
        const auto ptb_avg = averages(
            cores, {ptb::standard_techniques(policy).back()}, false, cache, pass);
        const std::string label =
            std::to_string(cores) + "Core_" +
            (policy == ptb::PtbPolicy::kToOne ? "ToOne" : "ToAll");
        std::vector<std::string> er{label}, ar{label};
        for (const ptb::Normalized& n : naive) {
          er.push_back(ptb::format_fixed(n.energy_pct, 2));
          ar.push_back(ptb::format_fixed(n.aopb_pct, 2));
        }
        er.push_back(ptb::format_fixed(ptb_avg[0].energy_pct, 2));
        ar.push_back(ptb::format_fixed(ptb_avg[0].aopb_pct, 2));
        pass.energy_rows.push_back(std::move(er));
        pass.aopb_rows.push_back(std::move(ar));
      }
    }
    pass.wall_s = ms_since(t0) / 1000.0;
    pass.cache_computed = cache.computed();
    return pass;
  }

 private:
  const ptb::RunResult& base(ptb::BaseRunCache& cache,
                             const ptb::WorkloadProfile& p,
                             std::uint32_t cores, Pass& pass) {
    ++pass.cache_gets;  // called from the submitting thread only
    return cache.get(p, cores, seed_);
  }

  // run_suite_averages, with the harness's own timed tasks: base runs
  // first (through the cache), then every (benchmark x technique) cell,
  // one wait_all, then normalization and the suite-average row.
  std::vector<ptb::Normalized> averages(
      std::uint32_t cores, const std::vector<ptb::TechniqueSpec>& techs,
      bool computes_base, ptb::BaseRunCache& cache, Pass& pass) {
    const std::size_t batch = pass.batches.size();
    const std::size_t first = pass.tasks.size();
    const std::size_t n_tasks = profiles_.size() * (1 + techs.size());
    pass.tasks.resize(first + n_tasks);
    TaskRec* recs = pass.tasks.data() + first;
    std::size_t gets_in_tasks = 0;
    const auto submitted = Clock::now();

    const auto finish = [submitted](TaskRec& rec, Clock::time_point s,
                                    const ptb::RunResult& r) {
      rec.start_ms = ms_between(submitted, s);
      rec.end_ms = ms_since(submitted);
      rec.worker = std::this_thread::get_id();
      rec.core_cycles =
          static_cast<double>(r.cycles) * static_cast<double>(r.num_cores);
      rec.hit_max_cycles = r.hit_max_cycles;
    };
    std::size_t idx = 0;
    for (const ptb::WorkloadProfile* p : profiles_) {
      TaskRec& rec = recs[idx++];
      rec.kind = computes_base ? TaskKind::kBaseRun : TaskKind::kBaseLookup;
      rec.cores = cores;
      rec.batch = batch;
      ++gets_in_tasks;
      pool_.submit([&cache, &rec, &finish, p, cores, seed = seed_] {
        const auto s = Clock::now();
        ptb::RunResult r = cache.get(*p, cores, seed);
        finish(rec, s, r);
        return r;
      });
    }
    for (const ptb::WorkloadProfile* p : profiles_) {
      for (const ptb::TechniqueSpec& t : techs) {
        TaskRec& rec = recs[idx++];
        rec.kind = TaskKind::kCell;
        rec.cores = cores;
        rec.batch = batch;
        pool_.submit([&rec, &finish, p, cfg = ptb::make_sim_config(cores, t, seed_)] {
          const auto s = Clock::now();
          ptb::RunResult r = ptb::run_one(*p, cfg);
          finish(rec, s, r);
          return r;
        });
      }
    }
    const std::vector<ptb::RunResult> results = pool_.wait_all();
    pass.batches.push_back({ms_since(submitted)});
    pass.cache_gets += gets_in_tasks;

    ptb::FigureGrid grid;
    for (const ptb::TechniqueSpec& t : techs) grid.technique_labels.push_back(t.label);
    std::size_t cell = profiles_.size();
    for (const ptb::WorkloadProfile* p : profiles_) {
      const ptb::RunResult& b = base(cache, *p, cores, pass);
      std::vector<ptb::Normalized> row;
      for (std::size_t c = 0; c < techs.size(); ++c) {
        row.push_back(ptb::normalize(b, results[cell++]));
      }
      grid.grid.push_back(std::move(row));
    }
    grid.append_average();
    return grid.grid.back();
  }

  ptb::RunPool& pool_;
  std::vector<const ptb::WorkloadProfile*> profiles_;
  std::uint64_t seed_;
};

// The figure binary's golden tables, as rows of cell strings.
bool golden_rows(const std::string& path,
                 std::vector<std::vector<std::string>>& energy,
                 std::vector<std::vector<std::string>>& aopb) {
  std::string text, err;
  ptb::json::Value doc;
  if (!read_file(path, text) || !ptb::json::parse(text, doc, err)) return false;
  const ptb::json::Value* tables = doc.find("tables");
  if (tables == nullptr || !tables->is_array() || tables->array().size() != 2) {
    return false;
  }
  for (std::size_t t = 0; t < 2; ++t) {
    const ptb::json::Value* rows = tables->array()[t].find("rows");
    if (rows == nullptr || !rows->is_array()) return false;
    auto& out = t == 0 ? energy : aopb;
    for (const ptb::json::Value& row : rows->array()) {
      std::vector<std::string> cells;
      for (const ptb::json::Value& c : row.array()) cells.push_back(c.as_string());
      out.push_back(std::move(cells));
    }
  }
  return true;
}

bool is_sim(const TaskRec& t) { return t.kind != TaskKind::kBaseLookup; }

void report_layers(const std::vector<Pass>& passes, const char* source,
                   Report& r) {
  std::vector<double> task_ms, wait_ms, base_ms, cell_ms;
  std::array<std::vector<double>, kCores.size()> by_cores;
  double busy_ms = 0.0, wall_ms = 0.0, tail_ms = 0.0;
  for (const Pass& p : passes) {
    wall_ms += p.wall_s * 1000.0;
    for (const TaskRec& t : p.tasks) {
      const double d = t.end_ms - t.start_ms;
      task_ms.push_back(d);
      wait_ms.push_back(t.start_ms);
      busy_ms += d;
      if (t.kind == TaskKind::kBaseRun) base_ms.push_back(d);
      if (t.kind == TaskKind::kCell) cell_ms.push_back(d);
      if (is_sim(t)) {
        for (std::size_t c = 0; c < kCores.size(); ++c) {
          if (kCores[c] == t.cores) by_cores[c].push_back(d);
        }
      }
    }
    // Idle tail: how long each worker sat with nothing left to claim while
    // its batch was still running (the batch ends with its slowest task).
    for (std::size_t b = 0; b < p.batches.size(); ++b) {
      std::vector<std::pair<std::thread::id, double>> last_end;
      for (const TaskRec& t : p.tasks) {
        if (t.batch != b) continue;
        bool found = false;
        for (auto& [id, end] : last_end) {
          if (id == t.worker) {
            end = std::max(end, t.end_ms);
            found = true;
          }
        }
        if (!found) last_end.emplace_back(t.worker, t.end_ms);
      }
      for (const auto& [id, end] : last_end) {
        tail_ms += p.batches[b].wall_ms - end;
      }
      // A worker that ran nothing in this batch idled for all of it.
      tail_ms += p.batches[b].wall_ms *
                 static_cast<double>(kWorkers - std::min<std::size_t>(
                                                    kWorkers, last_end.size()));
    }
  }
  const double np = static_cast<double>(passes.size());
  r.layer("sim", "pool.task_ms_p50", median(task_ms), "ms", task_ms.size(),
          source, kMovesPool);
  r.layer("sim", "pool.task_ms_max", quantile(task_ms, 1.0), "ms",
          task_ms.size(), source, kMovesPool);
  r.layer("sim", "pool.queue_wait_ms_p50", median(wait_ms), "ms",
          wait_ms.size(), source, kMovesPool);
  r.layer("sim", "pool.busy_share", busy_ms / (kWorkers * wall_ms), "ratio",
          task_ms.size(), source, kMovesPool);
  r.layer("sim", "pool.batch_tail_ms", tail_ms / np, "ms", passes.size(),
          source, kMovesPool);
  r.layer("sim", "basecache.gets", static_cast<double>(passes[0].cache_gets),
          "count", 1, source, kMovesPool);
  r.layer("sim", "basecache.computed",
          static_cast<double>(passes[0].cache_computed), "count", 1, source,
          kMovesPool);
  r.layer("sim", "sweep.base_run_ms_p50", median(base_ms), "ms",
          base_ms.size(), source, kMovesPool);
  r.layer("sim", "sweep.ctrl_run_ms_p50", median(cell_ms), "ms",
          cell_ms.size(), source, kMovesPool);
  for (std::size_t c = 0; c < kCores.size(); ++c) {
    r.layer("sim", "sweep.run_ms_p50.c" + std::to_string(kCores[c]),
            median(by_cores[c]), "ms", by_cores[c].size(), source, kMovesPool);
  }
}

}  // namespace

void run_sweep(const Options& o, Mode mode, Report& r) {
  const auto& suite = ptb::benchmark_suite();
  std::vector<const ptb::WorkloadProfile*> profiles;
  for (const auto& p : suite) {
    if (mode == Mode::kProbe && profiles.size() == kProbeBenchmarks) break;
    profiles.push_back(&p);
  }
  const bool full_suite = profiles.size() == suite.size();

  std::vector<std::vector<std::string>> golden_energy, golden_aopb;
  const bool check_golden = full_suite && o.seed == 1;
  if (check_golden &&
      !golden_rows(o.root + "/results/bench_fig09_scaling.json", golden_energy,
                   golden_aopb)) {
    r.fail("sweep: cannot read results/bench_fig09_scaling.json");
  }

  ptb::RunPool pool(kWorkers);
  Grid grid(pool, profiles, o.seed);
  std::vector<Pass> passes;
  double measured_s = 0.0;
  while (true) {
    passes.push_back(grid.run());
    measured_s += passes.back().wall_s;
    if (mode == Mode::kProbe) break;
    if (o.setup != nullptr) o.setup->sample(kSetupSamplesPerPass, r);
    // At least three grids, so the medians over grids are not a mean of two.
    if (passes.size() >= kMinPasses && measured_s + passes.back().wall_s > o.seconds) {
      break;
    }
  }

  std::vector<double> op_ms, pass_s, pass_mcps, pass_ops;
  for (const Pass& p : passes) {
    // A grid that differs from the golden (seed 1) or from the first grid
    // of this run (any seed) is wrong as a whole: all its runs fail.
    const bool wrong =
        (check_golden && (p.energy_rows != golden_energy ||
                          p.aopb_rows != golden_aopb)) ||
        p.energy_rows != passes[0].energy_rows ||
        p.aopb_rows != passes[0].aopb_rows;
    double core_cycles = 0.0, sims = 0.0;
    for (const TaskRec& t : p.tasks) {
      if (!is_sim(t)) continue;
      ++r.attempted;
      op_ms.push_back(t.end_ms - t.start_ms);
      core_cycles += t.core_cycles;
      sims += 1.0;
      if (t.hit_max_cycles) r.fail("sweep: a run hit max_cycles");
      else if (wrong) r.fail("sweep: grid averages differ from the expected figure");
    }
    pass_s.push_back(p.wall_s);
    pass_mcps.push_back(core_cycles / p.wall_s / 1e6);
    pass_ops.push_back(sims / p.wall_s);
  }

  if (mode == Mode::kMeasure) {
    r.add("wall_s", median(pass_s), "s", pass_s.size());
    r.add("sim_mcps", median(pass_mcps), "Mcycle/s", pass_mcps.size());
    r.add("op_p50_ms", quantile(op_ms, 0.5), "ms", op_ms.size());
    r.add("op_p90_ms", quantile(op_ms, 0.9), "ms", op_ms.size());
    r.add("ops_per_s", median(pass_ops), "1/s", pass_ops.size());
    r.add("peak_rss_mb", self_peak_rss_mib(), "MiB", 1);
  }
  if (mode == Mode::kProbe || o.trace) {
    report_layers(passes,
                  mode == Mode::kProbe ? "probe: 3-benchmark grid"
                                       : "sweep (timed tasks)",
                  r);
  }
}

}  // namespace perfbench

#include "serve/service.hpp"

#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "serve/http.hpp"
#include "stats/dump.hpp"
#include "workloads/suite.hpp"

namespace ptb::serve {

namespace {

// Finished jobs retained for polling before the oldest are pruned.
constexpr std::size_t kMaxRetainedJobs = 1024;

// The host-stage taxonomy: every span name the service can emit below the
// per-request root, and the set of per-stage latency histograms
// pre-registered on the daemon's registry (registration happens in the
// constructor, before any worker runs, so lazy per-name registration is
// out).
constexpr const char* kStageNames[] = {
    "parse",    "queue_wait", "admission_wait", "cache_probe",
    "simulate", "serialize",  "cache_publish",
};

}  // namespace

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_dir),
      admission_(opts_.host_tokens, opts_.admission_policy) {
  cache_.set_max_bytes(opts_.cache_max_bytes);  // before any worker exists
  register_metrics();
  const unsigned workers = opts_.sim_workers == 0 ? 1 : opts_.sim_workers;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() { stop(); }

void Service::register_metrics() {
  // Registration binds pull lambdas; this runs before any worker exists.
  registry_.counter_fn("serve.http.requests",
                       "HTTP requests completed (all statuses)",
                       [this] { return double(http_requests_.load()); });
  registry_.counter_fn("serve.jobs.submitted", "jobs accepted by submit()",
                       [this] { return double(jobs_submitted_.load()); });
  registry_.counter_fn("serve.units.completed",
                       "simulation units finished successfully",
                       [this] { return double(units_completed_.load()); });
  registry_.counter_fn("serve.units.failed",
                       "simulation units failed (shutdown drain)",
                       [this] { return double(units_failed_.load()); });
  registry_.counter_fn("serve.cache.hits", "disk cache hits",
                       [this] { return double(cache_.hits()); });
  registry_.counter_fn("serve.cache.memory_hits",
                       "disk cache hits served from the in-process tier",
                       [this] { return double(cache_.memory_hits()); });
  registry_.counter_fn("serve.cache.misses", "disk cache misses",
                       [this] { return double(cache_.misses()); });
  registry_.counter_fn("serve.cache.corrupt",
                       "disk cache entries rejected as corrupt",
                       [this] { return double(cache_.corrupt()); });
  registry_.counter_fn("serve.cache.stores", "disk cache entries written",
                       [this] { return double(cache_.stores()); });
  registry_.counter_fn("serve.cache.evicted",
                       "cache entries evicted to honor --cache-max-bytes",
                       [this] { return double(cache_.evicted()); });
  registry_.gauge_fn("serve.queue.depth", "units queued, not yet running",
                     [this] { return double(queue_depth_.load()); }, 0);
  registry_.gauge_fn("serve.jobs.in_flight", "simulations running now",
                     [this] { return double(units_running_.load()); }, 0);
  registry_.gauge_fn("serve.admission.host_tokens",
                     "configured host token budget",
                     [this] { return double(admission_.host_tokens()); }, 0);
  {
    MutexLock lock(metrics_mu_);
    latency_hist_ = &registry_.distribution(
        "serve.http.request_ms", "HTTP request latency (milliseconds)", 0.0,
        1000.0, 20);
    for (const char* stage : kStageNames) {
      stage_hists_[stage] = &registry_.distribution(
          std::string("serve.stage.") + stage + "_ms",
          std::string("'") + stage + "' stage latency (milliseconds)", 0.0,
          1000.0, 20);
    }
  }
}

bool Service::submit(const std::string& tenant,
                     std::vector<RunRequest> requests, Submitted& out,
                     std::string& err, const TraceCtx& trace,
                     bool waited) {
  PTB_ASSERT(!requests.empty(), "submit requires at least one request");
  Submitted result;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      err = "service shutting down";
      return false;
    }
    if (queue_depth_.load() + requests.size() > opts_.queue_max) {
      err = "queue full";
      return false;
    }

    // Prune oldest finished jobs (ids are zero-padded, so map order is
    // submission order). Nothing queued can reference a finished job.
    while (jobs_.size() >= kMaxRetainedJobs) {
      bool pruned = false;
      for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
        if (it->second->finished()) {
          jobs_.erase(it);
          pruned = true;
          break;
        }
      }
      if (!pruned) break;  // everything live; let the table grow
    }

    char idbuf[24];
    std::snprintf(idbuf, sizeof(idbuf), "j%08llu",
                  static_cast<unsigned long long>(next_job_id_++));
    auto job = std::make_unique<Job>();
    job->id = idbuf;
    job->tenant = tenant.empty() ? "default" : tenant;
    job->trace_id = trace.trace_id;
    job->root_span = trace.root_span;
    job->waited = waited;
    job->units.reserve(requests.size());
    const double enqueued = now_ms();
    for (RunRequest& req : requests) {
      Unit u;
      u.key = DiskRunCache::run_key(req.benchmark, req.config);
      u.req = std::move(req);
      u.enqueued_ms = enqueued;
      result.unit_keys.push_back(hex16(u.key));
      job->units.push_back(std::move(u));
    }
    result.job_id = job->id;

    Job* jp = job.get();
    jobs_[jp->id] = std::move(job);
    std::deque<QueueRef>& q = queues_[jp->tenant];
    for (std::size_t i = 0; i < jp->units.size(); ++i) {
      q.push_back(QueueRef{jp, i});
      queue_depth_.fetch_add(1);
    }
    jobs_submitted_.fetch_add(1);
  }
  work_cv_.notify_all();
  out = std::move(result);
  return true;
}

Service::QueueRef Service::pick_unit_locked() {
  std::map<std::string, std::uint32_t> demand;
  for (const auto& [tenant, q] : queues_) {
    demand[tenant] = static_cast<std::uint32_t>(q.size());
  }
  for (const auto& [tenant, running] : running_per_tenant_) {
    demand[tenant] += running;
  }
  const std::map<std::string, std::uint32_t> grant = admission_.plan(demand);
  for (auto it = queues_.begin(); it != queues_.end(); ++it) {
    std::deque<QueueRef>& q = it->second;  // never empty: erased when drained
    const auto g = grant.find(it->first);
    const auto r = running_per_tenant_.find(it->first);
    const std::uint32_t running =
        r == running_per_tenant_.end() ? 0 : r->second;
    if (g != grant.end() && running < g->second) {
      const QueueRef ref = q.front();
      q.pop_front();
      if (q.empty()) queues_.erase(it);
      return ref;
    }
    // Admission denied with work queued: stamp the head-of-line unit's
    // first-blocked instant so its admission_wait span starts here.
    Unit& head = q.front().job->units[q.front().unit_index];
    if (head.blocked_ms == 0.0) head.blocked_ms = now_ms();
  }
  return QueueRef{nullptr, 0};
}

void Service::worker_loop() {
  MutexLock lock(mu_);
  for (;;) {
    QueueRef ref{nullptr, 0};
    // Explicit wait loop (RunPool idiom): a predicate lambda would not be
    // known to hold mu_ under -Wthread-safety.
    while (!stopping_ && (ref = pick_unit_locked()).job == nullptr) {
      work_cv_.wait(lock);
    }
    if (ref.job == nullptr) return;  // stopping; queued units fail in stop()

    Job* job = ref.job;  // stable: jobs are pruned only once finished
    Unit& u = job->units[ref.unit_index];
    u.state = Unit::State::kRunning;
    ++running_per_tenant_[job->tenant];
    queue_depth_.fetch_sub(1);
    units_running_.fetch_add(1);
    u.picked_ms = now_ms();
    const RunRequest req = u.req;  // simulate without the lock
    const std::uint64_t trace_id = job->trace_id;
    const std::uint32_t root_span = job->root_span;
    const double enqueued = u.enqueued_ms;
    const double blocked = u.blocked_ms;
    const double picked = u.picked_ms;
    const bool keep_payload = job->waited;
    lock.unlock();

    // A unit submitted without trace linkage (a direct submit() caller)
    // records no spans. Every stage is a direct child of the request's
    // root span.
    const bool tracing = trace_id != 0;
    const auto close_stage = [&](std::uint32_t span_id, std::string name,
                                 double start_ms, double end_ms) {
      ServeSpan s;
      s.trace_id = trace_id;
      s.span_id = span_id;
      s.parent_id = root_span;
      s.name = std::move(name);
      s.start_ms = start_ms;
      s.end_ms = end_ms;
      close_span(std::move(s));
    };

    if (tracing) {
      // Scheduler spans. Both are always emitted — admission_wait is
      // zero-length when the unit was never denied — so two identical
      // requests produce structurally identical span trees regardless of
      // scheduler timing.
      close_stage(spans_.next_span_id(), "queue_wait", enqueued, picked);
      close_stage(spans_.next_span_id(), "admission_wait",
                  blocked == 0.0 ? picked : blocked, picked);
    }

    // Host-stage observer: cached_run_payload's stages run one after
    // another, so one open stage at a time.
    struct StageOpen {
      std::string name;
      double begin_ms = 0.0;
      std::uint32_t span_id = 0;
    } open;
    RunObserver observer;
    const RunObserver* obs_ptr = nullptr;
    if (tracing) {
      observer.stage_enter = [&](std::string_view stage) {
        open =
            StageOpen{std::string(stage), now_ms(), spans_.next_span_id()};
      };
      observer.stage_exit = [&](std::string_view) {
        close_stage(open.span_id, std::move(open.name), open.begin_ms,
                    now_ms());
      };
      obs_ptr = &observer;
    }

    bool hit = false;
    std::string payload =
        cached_run_payload(cache_, benchmark_by_name(req.benchmark),
                           req.config, hit, obs_ptr);

    lock.lock();
    u.state = Unit::State::kDone;
    u.cache_hit = hit;
    if (keep_payload) u.payload = std::move(payload);
    const auto running = running_per_tenant_.find(job->tenant);
    if (--running->second == 0) running_per_tenant_.erase(running);
    units_running_.fetch_sub(1);
    units_completed_.fetch_add(1);
    ++job->completed;
    if (job->finished()) done_cv_.notify_all();
    // Admission headroom changed: another tenant's unit may now start.
    work_cv_.notify_all();
  }
}

bool Service::wait(const std::string& job_id) {
  MutexLock lock(mu_);
  for (;;) {
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return false;
    if (it->second->finished()) return true;
    done_cv_.wait(lock);
  }
}

std::string Service::job_status_json(const std::string& job_id) {
  MutexLock lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return "";
  const Job& job = *it->second;

  bool any_failed = false;
  bool any_running = false;
  for (const Unit& u : job.units) {
    if (u.state == Unit::State::kFailed) any_failed = true;
    if (u.state == Unit::State::kRunning) any_running = true;
  }
  const char* state = job.finished() ? (any_failed ? "failed" : "done")
                                     : (any_running ? "running" : "queued");

  std::string out = "{";
  out += "\"id\":\"" + job.id + "\",";
  out += "\"tenant\":\"" + json::escape(job.tenant) + "\",";
  out += "\"state\":\"";
  out += state;
  out += "\",";
  out += "\"total\":" + std::to_string(job.units.size()) + ",";
  out += "\"completed\":" + std::to_string(job.completed) + ",";
  out += "\"units\":[";
  for (std::size_t i = 0; i < job.units.size(); ++i) {
    const Unit& u = job.units[i];
    if (i) out += ",";
    out += "{\"benchmark\":\"" + json::escape(u.req.benchmark) + "\",";
    out += "\"key\":\"" + hex16(u.key) + "\",";
    out += "\"state\":\"";
    switch (u.state) {
      case Unit::State::kPending: out += "pending"; break;
      case Unit::State::kRunning: out += "running"; break;
      case Unit::State::kDone: out += "done"; break;
      case Unit::State::kFailed: out += "failed"; break;
    }
    out += "\"";
    if (u.state == Unit::State::kDone) {
      out += ",\"cache\":\"";
      out += u.cache_hit ? "hit" : "miss";
      out += "\"";
    }
    if (u.state == Unit::State::kFailed) {
      out += ",\"error\":\"" + json::escape(u.error) + "\"";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

bool Service::unit_result(const std::string& job_id, std::size_t index,
                          std::string& payload, bool& cache_hit) {
  MutexLock lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || index >= it->second->units.size()) return false;
  Unit& u = it->second->units[index];
  if (u.state != Unit::State::kDone) return false;
  payload = std::exchange(u.payload, std::string());
  cache_hit = u.cache_hit;
  return true;
}

bool Service::result_payload(const std::string& key_hex,
                             std::string& payload) {
  std::uint64_t key = 0;
  if (!parse_hex16(key_hex, key)) return false;
  return cache_.load(key, payload);
}

std::string Service::metrics_text() {
  // metrics_mu_ orders the snapshot against concurrent latency pushes;
  // every other source is an atomic read.
  MutexLock lock(metrics_mu_);
  StatsDump dump = StatsDump::snapshot(registry_, nullptr, 0);
  dump.bench = "ptb-serve";
  return dump.to_prometheus();
}

void Service::record_http_request(double ms) {
  http_requests_.fetch_add(1);
  MutexLock lock(metrics_mu_);
  latency_hist_->add(ms);
}

void Service::close_span(ServeSpan span) {
  {
    MutexLock lock(metrics_mu_);
    const auto it = stage_hists_.find(span.name);
    if (it != stage_hists_.end()) it->second->add(span.end_ms - span.start_ms);
  }
  spans_.emit(std::move(span));
}

std::size_t Service::tenant_entries() {
  MutexLock lock(mu_);
  return queues_.size() + running_per_tenant_.size();
}

std::size_t Service::held_payload_bytes() {
  MutexLock lock(mu_);
  std::size_t bytes = 0;
  for (const auto& [id, job] : jobs_) {
    for (const Unit& u : job->units) bytes += u.payload.size();
  }
  return bytes;
}

void Service::stop() {
  if (stopped_.exchange(true)) return;
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  {
    MutexLock lock(mu_);
    // Fail everything still queued so blocked waiters return.
    for (auto& [tenant, q] : queues_) {
      for (const QueueRef& ref : q) {
        Unit& u = ref.job->units[ref.unit_index];
        if (u.state == Unit::State::kPending) {
          u.state = Unit::State::kFailed;
          u.error = "service shutting down";
          units_failed_.fetch_add(1);
          queue_depth_.fetch_sub(1);
          ++ref.job->completed;
        }
      }
    }
    queues_.clear();
  }
  done_cv_.notify_all();
}

}  // namespace ptb::serve

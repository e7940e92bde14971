#include "serve/service.hpp"

#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "serve/http.hpp"
#include "stats/dump.hpp"
#include "workloads/suite.hpp"

// ptb-lint: allow-begin(wallclock) -- event-stream timeouts only: the
// condition-variable wait below bounds how long a streaming client blocks
// between heartbeats; no simulation state is derived from it.
#include <chrono>
// ptb-lint: allow-end

namespace ptb::serve {

namespace {

// Finished jobs retained for polling before the oldest are pruned.
constexpr std::size_t kMaxRetainedJobs = 1024;

// Per-job event feed cap: oldest events are dropped first (the client sees
// the gap in the seq numbers). Terminal events are always the newest, so
// they are never dropped.
constexpr std::size_t kMaxJobEvents = 256;

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
  if (opts_.trace_spans > 0) {
    spans_ = std::make_unique<SpanRecorder>(opts_.trace_spans);
  }
  if (!opts_.log_file.empty()) {
    std::string err;
    PTB_ASSERTF(access_log_.open(opts_.log_file, opts_.log_level, err),
                "access log: %s", err.c_str());
  }
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
  registry_.counter_fn("serve.http.streams",
                       "streaming (chunked) responses completed",
                       [this] { return double(http_streams_.load()); });
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
                     std::string& err) {
  return submit(tenant, std::move(requests), out, err, TraceCtx{});
}

bool Service::submit(const std::string& tenant,
                     std::vector<RunRequest> requests, Submitted& out,
                     std::string& err, const TraceCtx& trace) {
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
    job->units.reserve(requests.size());
    const double enqueued = spans_ != nullptr ? now_ms() : 0.0;
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
  for (auto& [tenant, q] : queues_) {
    if (q.empty()) continue;
    const auto g = grant.find(tenant);
    const auto r = running_per_tenant_.find(tenant);
    const std::uint32_t running =
        r == running_per_tenant_.end() ? 0 : r->second;
    if (g != grant.end() && running < g->second) {
      const QueueRef ref = q.front();
      q.pop_front();
      return ref;
    }
    if (spans_ != nullptr) {
      // Admission denied with work queued: stamp the head-of-line unit's
      // first-blocked instant so its admission_wait span starts here.
      Unit& head = q.front().job->units[q.front().unit_index];
      if (head.blocked_ms == 0.0) head.blocked_ms = now_ms();
    }
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
    const std::uint32_t running_now = ++running_per_tenant_[job->tenant];
    if (running_now > job->tokens_held_peak) {
      job->tokens_held_peak = running_now;
    }
    queue_depth_.fetch_sub(1);
    units_running_.fetch_add(1);
    if (spans_ != nullptr) u.picked_ms = now_ms();
    const RunRequest req = u.req;  // simulate without the lock
    const std::uint64_t trace_id = job->trace_id;
    const std::uint32_t root_span = job->root_span;
    const double enqueued = u.enqueued_ms;
    const double blocked = u.blocked_ms;
    const double picked = u.picked_ms;
    const std::size_t unit_index = ref.unit_index;
    lock.unlock();

    SpanRecorder* rec = spans_.get();
    const bool tracing = rec != nullptr && trace_id != 0;
    const bool want_progress = opts_.progress_every_cycles > 0;

    // Per-stage durations accumulate worker-locally during the unlocked
    // simulate window and are assigned into the Unit only after relocking.
    std::vector<std::pair<std::string, double>> stage_ms;

    if (tracing) {
      // Scheduler spans. Both are always emitted — admission_wait is
      // zero-length when the unit was never denied — so two identical
      // requests produce structurally identical span trees regardless of
      // scheduler timing.
      ServeSpan s;
      s.trace_id = trace_id;
      s.parent_id = root_span;
      s.span_id = rec->next_span_id();
      s.name = "queue_wait";
      s.start_ms = enqueued;
      s.end_ms = picked;
      rec->emit(s);
      record_stage("queue_wait", picked - enqueued);
      stage_ms.emplace_back("queue_wait", picked - enqueued);
      s.span_id = rec->next_span_id();
      s.name = "admission_wait";
      s.start_ms = blocked == 0.0 ? picked : blocked;
      rec->emit(s);
      record_stage("admission_wait", s.end_ms - s.start_ms);
      stage_ms.emplace_back("admission_wait", s.end_ms - s.start_ms);
    }

    // Host-stage observer: cached_run_payload's stages run one after
    // another, each a direct child of the request's root span.
    struct StageOpen {
      std::string name;
      double begin_ms = 0.0;
      std::uint32_t span_id = 0;
    } open;
    RunObserver observer;
    const RunObserver* obs_ptr = nullptr;
    if (tracing) {
      observer.stage_enter = [&](std::string_view stage) {
        open = StageOpen{std::string(stage), now_ms(), rec->next_span_id()};
      };
      observer.stage_exit = [&](std::string_view) {
        ServeSpan s;
        s.trace_id = trace_id;
        s.span_id = open.span_id;
        s.parent_id = root_span;
        s.name = open.name;
        s.start_ms = open.begin_ms;
        s.end_ms = now_ms();
        rec->emit(s);
        record_stage(open.name, s.end_ms - s.start_ms);
        stage_ms.emplace_back(open.name, s.end_ms - s.start_ms);
      };
      obs_ptr = &observer;
    }
    if (want_progress) {
      observer.progress_every = opts_.progress_every_cycles;
      observer.progress = [&](const RunProgress& p) {
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "{\"unit\":%zu,\"cycle\":%llu,\"max_cycles\":%llu,"
            "\"committed\":%llu,\"ipc\":%.4f,\"watts\":%.2f,"
            "\"cores_finished\":%u,\"cores\":%u}",
            unit_index, static_cast<unsigned long long>(p.cycle),
            static_cast<unsigned long long>(p.max_cycles),
            static_cast<unsigned long long>(p.committed), p.ipc, p.watts,
            p.cores_finished, p.num_cores);
        MutexLock plock(mu_);
        push_event_locked(*job, "progress", buf, false);
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
    u.payload = std::move(payload);
    u.stage_ms = std::move(stage_ms);
    --running_per_tenant_[job->tenant];
    units_running_.fetch_sub(1);
    units_completed_.fetch_add(1);
    ++job->completed;
    {
      std::string data = "{\"unit\":" + std::to_string(unit_index) +
                         ",\"benchmark\":\"" + json::escape(req.benchmark) +
                         "\",\"state\":\"done\",\"cache\":\"" +
                         (hit ? "hit" : "miss") + "\",\"key\":\"" +
                         hex16(u.key) + "\"}";
      push_event_locked(*job, "unit", std::move(data), false);
    }
    if (job->finished()) {
      bool any_failed = false;
      for (const Unit& ju : job->units) {
        if (ju.state == Unit::State::kFailed) any_failed = true;
      }
      const char* kind = any_failed ? "failed" : "done";
      std::string data = "{\"id\":\"" + job->id + "\",\"state\":\"" + kind +
                         "\",\"total\":" + std::to_string(job->units.size()) +
                         "}";
      push_event_locked(*job, kind, std::move(data), true);
      done_cv_.notify_all();
    }
    // Admission headroom changed: another tenant's unit may now start.
    work_cv_.notify_all();
  }
}

void Service::push_event_locked(Job& job, const char* kind, std::string data,
                                bool terminal) {
  JobEvent ev;
  ev.seq = job.next_event_seq++;
  ev.kind = kind;
  ev.data = std::move(data);
  ev.terminal = terminal;
  job.events.push_back(std::move(ev));
  while (job.events.size() > kMaxJobEvents) job.events.pop_front();
  if (terminal) job.terminal_emitted = true;
  event_cv_.notify_all();
}

Service::EventWait Service::next_job_event(const std::string& job_id,
                                           std::uint64_t after_seq,
                                           double timeout_ms, JobEvent& out) {
  if (timeout_ms < 0.0) timeout_ms = 0.0;
  MutexLock lock(mu_);
  bool timed_out = false;
  for (;;) {
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return EventWait::kGone;
    const Job& job = *it->second;
    for (const JobEvent& ev : job.events) {
      if (ev.seq > after_seq) {
        out = ev;
        return EventWait::kEvent;
      }
    }
    if (job.terminal_emitted) return EventWait::kGone;  // feed consumed
    if (timed_out) return EventWait::kTimeout;
    timed_out =
        event_cv_.wait_for(
            lock, std::chrono::duration<double, std::milli>(timeout_ms)) ==
        std::cv_status::timeout;
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
  const Unit& u = it->second->units[index];
  if (u.state != Unit::State::kDone) return false;
  payload = u.payload;
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

void Service::record_http_stream() {
  http_requests_.fetch_add(1);
  http_streams_.fetch_add(1);
}

void Service::record_stage(std::string_view stage, double ms) {
  MutexLock lock(metrics_mu_);
  const auto it = stage_hists_.find(stage);
  if (it != stage_hists_.end()) it->second->add(ms);
}

ServeSpanLog Service::trace_snapshot() {
  return spans_ != nullptr ? spans_->snapshot() : ServeSpanLog{};
}

bool Service::job_observed(const std::string& job_id,
                           std::uint32_t& tokens_held,
                           std::vector<std::pair<std::string, double>>&
                               stages) {
  MutexLock lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  const Job& job = *it->second;
  tokens_held = job.tokens_held_peak;
  stages.clear();
  for (const Unit& u : job.units) {
    for (const auto& [name, ms] : u.stage_ms) {
      bool merged = false;
      for (auto& [sname, sms] : stages) {
        if (sname == name) {
          sms += ms;
          merged = true;
          break;
        }
      }
      if (!merged) stages.emplace_back(name, ms);
    }
  }
  return true;
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
      q.clear();
    }
    // Any job finishing through this drain never got a terminal event from
    // a worker: emit "aborted" so an open /v1/jobs/{id}/events stream
    // unblocks and closes instead of hanging until the client gives up.
    for (auto& [id, job] : jobs_) {
      if (job->finished() && !job->terminal_emitted) {
        std::string data =
            "{\"id\":\"" + job->id + "\",\"state\":\"aborted\"}";
        push_event_locked(*job, "aborted", std::move(data), true);
      }
    }
  }
  done_cv_.notify_all();
  event_cv_.notify_all();
}

}  // namespace ptb::serve

// Service: the simulation-as-a-service core behind ptb-serve's HTTP
// routes. Owns the persistent DiskRunCache, a job table, a fixed pool of
// simulation workers, the TokenAdmission plan, the daemon's own
// StatsRegistry (exposed at /metrics via the Prometheus exposition) and
// the request-span ring (GET /v1/trace). A request's spans are the one
// record it leaves: each closed span also feeds its stage's /metrics
// histogram, so the ring and the histograms cannot disagree.
//
// Execution model: submit() enqueues one job (one or more RunRequests)
// onto its tenant's FIFO and returns immediately with a job id and the
// content-address (run key) of every unit. Worker threads pick the next
// admissible unit — tenants in deterministic map order, FIFO within a
// tenant, never exceeding the tenant's TokenAdmission grant — and answer
// it through the disk cache (cached_run_payload: load on hit, simulate +
// atomic store on miss). Clients either poll GET /v1/jobs/{id} or block
// with ?wait=1 (wait()).
//
// A unit holds its artifact bytes only until they are handed over: the
// worker keeps them only for a waited job (submit's `waited`), and
// unit_result() moves them out. An async unit keeps none — its client
// reads GET /v1/results/{key}, straight from the cache. A finished unit
// keeps its request, key, state, cache disposition and error: under 1 KB
// per retained unit, most of it the 520-byte RunRequest.
//
// Concurrent identical requests may both simulate (benign: the artifact
// is a pure function of the request, stores are atomic and byte-identical,
// last rename wins); the second request through the cache after the first
// completes is a hit.
//
// stop() drains gracefully: running units finish and are recorded; units
// still queued are failed with "service shutting down" so a blocked
// wait() always returns.
//
// Tenant bookkeeping lives only while a tenant has work: its queue is
// erased when it empties and its running count when it drops to 0, so a
// client that sends a new X-Ptb-Tenant value per request leaves nothing
// behind.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/admission.hpp"
#include "serve/config_json.hpp"
#include "serve/span.hpp"
#include "sim/experiment.hpp"
#include "stats/stats.hpp"

namespace ptb::serve {

struct ServiceOptions {
  std::string cache_dir = ".ptb-cache";
  unsigned sim_workers = 2;       // --jobs: concurrent simulations
  std::uint32_t host_tokens = 2;  // --host-tokens: admission budget
  PtbPolicy admission_policy = PtbPolicy::kToAll;
  std::size_t queue_max = 256;  // queued (not yet running) units
  // --cache-max-bytes: disk-cache quota; oldest published entries are
  // evicted after each store to stay under it. 0 = unbounded.
  std::uint64_t cache_max_bytes = 0;
};

/// Spans the daemon's ring keeps (the newest; older ones are counted as
/// dropped in GET /v1/trace's "otherData").
inline constexpr std::size_t kSpanRingCapacity = 4096;

/// Trace linkage carried from HTTP ingress into the job table: worker-side
/// spans (queue wait, simulate stages) parent under the submitting
/// request's root span. Zero-valued for a direct submit() without an HTTP
/// request, whose units then record no spans.
struct TraceCtx {
  std::uint64_t trace_id = 0;
  std::uint32_t root_span = 0;
};

class Service {
 public:
  explicit Service(ServiceOptions opts);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Outcome of a submit: the job id plus each unit's run key (hex16) —
  /// the address a client can later GET /v1/results/{key} with.
  struct Submitted {
    std::string job_id;
    std::vector<std::string> unit_keys;
  };

  /// Enqueues one job for `tenant`, carrying the submitting request's
  /// trace linkage. `waited`: the submitter will block in wait() and take
  /// every unit's bytes with unit_result(); otherwise the units keep no
  /// bytes. Known here, before any worker can finish a unit, so a fast
  /// hit cannot race it. False (with `err`) when the queue is full or the
  /// service is stopping — the caller answers 429/503.
  bool submit(const std::string& tenant, std::vector<RunRequest> requests,
              Submitted& out, std::string& err, const TraceCtx& trace = {},
              bool waited = false);

  /// Blocks until the job has finished (done or failed). False when the
  /// id is unknown.
  bool wait(const std::string& job_id);

  /// Job status document for GET /v1/jobs/{id} ("" when unknown).
  std::string job_status_json(const std::string& job_id);

  /// Hands a done unit's artifact bytes and cache disposition to the
  /// synchronous (?wait=1) response path, after wait(). The bytes are
  /// moved out, so the unit holds none afterwards: a second call, or a
  /// job not submitted `waited`, yields an empty payload. False when the
  /// id/index is unknown or the unit failed.
  bool unit_result(const std::string& job_id, std::size_t index,
                   std::string& payload, bool& cache_hit);

  /// GET /v1/results/{key}: straight read-through of the persistent
  /// cache (key is hex16). False on bad key, miss, or corrupt entry.
  bool result_payload(const std::string& key_hex, std::string& payload);

  /// Prometheus text exposition of the daemon's registry (/metrics).
  std::string metrics_text();

  /// Hook for the HTTP transport: request completed in `ms`.
  void record_http_request(double ms);

  /// The request-span ring (kSpanRingCapacity spans).
  SpanRecorder& spans() { return spans_; }

  /// Closes one span — the only way a span or a stage timing is recorded:
  /// pushes it to the span ring and adds its duration to the stage's
  /// /metrics histogram (pre-registered stage names only; "request" roots
  /// have none). Thread-safe.
  void close_span(ServeSpan span);

  /// Tenant bookkeeping entries: one per tenant queue plus one per tenant
  /// running count. Both are dropped when they empty, so 0 when idle.
  std::size_t tenant_entries();

  /// Artifact bytes the job table holds: waited units not yet handed
  /// over by unit_result(), so 0 once every ?wait=1 answer has gone out.
  std::size_t held_payload_bytes();

  const DiskRunCache& cache() const { return cache_; }
  const TokenAdmission& admission() const { return admission_; }

  /// Graceful drain (see class comment). Idempotent.
  void stop();

 private:
  struct Unit {
    RunRequest req;
    std::uint64_t key = 0;
    // pending -> running -> done | failed
    enum class State : std::uint8_t { kPending, kRunning, kDone, kFailed };
    State state = State::kPending;
    bool cache_hit = false;
    // Artifact bytes of a done unit of a waited job, until unit_result()
    // moves them out; always empty otherwise.
    std::string payload;
    std::string error;  // failed units
    // Span timestamps (now_ms()):
    double enqueued_ms = 0.0;  // entered its tenant queue
    double blocked_ms = 0.0;   // first denied by admission (0: never)
    double picked_ms = 0.0;    // claimed by a worker
  };

  struct Job {
    std::string id;
    std::string tenant;
    std::vector<Unit> units;
    std::size_t completed = 0;  // done + failed
    bool waited = false;  // a ?wait=1 submitter takes the payloads
    // Trace linkage (zero: no spans for this job's units).
    std::uint64_t trace_id = 0;
    std::uint32_t root_span = 0;
    bool finished() const { return completed == units.size(); }
  };

  struct QueueRef {
    Job* job;
    std::size_t unit_index;
  };

  void worker_loop();
  /// Next admissible (tenant-fair, FIFO) unit, or {nullptr, 0}.
  QueueRef pick_unit_locked() PTB_REQUIRES(mu_);
  void register_metrics();

  const ServiceOptions opts_;
  DiskRunCache cache_;
  TokenAdmission admission_;

  Mutex mu_;
  std::condition_variable_any work_cv_;  // workers: new unit / stopping
  std::condition_variable_any done_cv_;  // waiters: a job finished
  std::map<std::string, std::unique_ptr<Job>> jobs_ PTB_GUARDED_BY(mu_);
  std::map<std::string, std::deque<QueueRef>> queues_ PTB_GUARDED_BY(mu_);
  std::map<std::string, std::uint32_t> running_per_tenant_
      PTB_GUARDED_BY(mu_);
  std::uint64_t next_job_id_ PTB_GUARDED_BY(mu_) = 1;
  bool stopping_ PTB_GUARDED_BY(mu_) = false;

  // Metrics sources (atomics: readable from the registry's pull lambdas
  // without touching mu_, so /metrics never contends with the scheduler).
  std::atomic<std::uint64_t> http_requests_{0};
  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> units_completed_{0};
  std::atomic<std::uint64_t> units_failed_{0};
  std::atomic<std::uint64_t> queue_depth_{0};    // pending units
  std::atomic<std::uint64_t> units_running_{0};  // in-flight simulations

  Mutex metrics_mu_;  // guards histogram pushes vs /metrics snapshots
  StatsRegistry registry_;
  Histogram* latency_hist_ PTB_PT_GUARDED_BY(metrics_mu_) =
      nullptr;  // registry-owned
  // Pre-registered per-stage latency histograms (the span taxonomy);
  // registry-owned, looked up by span name in close_span.
  std::map<std::string, Histogram*, std::less<>> stage_hists_
      PTB_GUARDED_BY(metrics_mu_);

  SpanRecorder spans_{kSpanRingCapacity};

  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace ptb::serve

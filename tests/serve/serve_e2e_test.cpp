// End-to-end ptb-serve tests: a real Server (sockets on 127.0.0.1, port 0)
// driven through the in-repo HTTP client. The acceptance case for the
// service plane lives here: a daemon *restart* between two identical
// POST /v1/run requests, with the second answered from the persistent
// DiskRunCache byte-identically to the first — the cache, not the process,
// is the source of truth. The remaining cases cover /metrics exposition,
// the admission cap, the sweep route, async submit + poll, graceful drain
// (queued units fail, blocked waiters return) and the error surface
// (routing is also exercised without sockets through Server::handle).
//
// The observability plane is pinned here too: span-tree structural
// determinism across identical requests, stage histograms fed by exactly
// the closed spans, and a served artifact byte-identical to the payload
// built without an observer (the observe-only contract). Tenant
// bookkeeping is dropped once a tenant's work is done, and an answered job
// holds no artifact bytes.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "common/json.hpp"
#include "serve/http.hpp"
#include "serve/span.hpp"
#include "workloads/suite.hpp"

namespace ptb::serve {
namespace {

// 2 cores x 20k cycles: a few milliseconds per simulation.
const char* kRunBody =
    "{\"benchmark\":\"fft\","
    "\"config\":{\"num_cores\":2,\"max_cycles\":20000}}";

ServiceOptions test_opts(const std::string& cache_dir) {
  ServiceOptions o;
  o.cache_dir = cache_dir;
  o.sim_workers = 2;
  o.host_tokens = 2;
  o.queue_max = 64;
  return o;
}

std::string fresh_cache_dir(const char* tag) {
  // TempDir() outlives the process: wipe the slot so a "fresh cache" case
  // stays fresh on re-runs. The pid keeps concurrent test processes (two
  // build trees running ctest at once) out of each other's slots.
  const std::string dir = testing::TempDir() + "/ptb_serve_e2e_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

const std::string* find_header(const HttpResponse& r, const char* name) {
  for (const auto& [k, v] : r.headers) {
    if (k == name) return &v;  // client lowercases names
  }
  return nullptr;
}

HttpResponse must_request(std::uint16_t port, const std::string& method,
                          const std::string& target,
                          const std::string& body = "") {
  HttpResponse resp;
  std::string err;
  EXPECT_TRUE(
      http_request("127.0.0.1", port, method, target, body, {}, resp, err))
      << method << " " << target << ": " << err;
  return resp;
}

// The acceptance test: byte-identical answers from the persistent cache
// across a full daemon restart.
TEST(ServeE2E, RestartServesByteIdenticalFromPersistentCache) {
  const std::string cache_dir = fresh_cache_dir("restart");

  std::string first_body;
  std::string key;
  {
    Server server(test_opts(cache_dir), "127.0.0.1", 0, 2);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    const HttpResponse r =
        must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
    ASSERT_EQ(r.status, 200) << r.body;
    const std::string* cache = find_header(r, "x-ptb-cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(*cache, "miss") << "fresh cache dir cannot hit";
    const std::string* k = find_header(r, "x-ptb-key");
    ASSERT_NE(k, nullptr);
    key = *k;
    first_body = r.body;
    ASSERT_FALSE(first_body.empty());
    server.stop();
  }  // daemon gone; only the cache directory survives

  {
    Server server(test_opts(cache_dir), "127.0.0.1", 0, 2);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    const HttpResponse r =
        must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
    ASSERT_EQ(r.status, 200) << r.body;
    const std::string* cache = find_header(r, "x-ptb-cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(*cache, "hit") << "restart lost the persistent cache";
    EXPECT_EQ(r.body, first_body) << "cached answer not byte-identical";

    // The content address is stable across processes too.
    const HttpResponse by_key =
        must_request(server.port(), "GET", "/v1/results/" + key);
    ASSERT_EQ(by_key.status, 200);
    EXPECT_EQ(by_key.body, first_body);
    server.stop();
  }
}

TEST(ServeE2E, MetricsExposeRequestCacheAndQueueSeries) {
  Server server(test_opts(fresh_cache_dir("metrics")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  ASSERT_EQ(must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody)
                .status,
            200);
  const HttpResponse m = must_request(server.port(), "GET", "/metrics");
  ASSERT_EQ(m.status, 200);
  EXPECT_NE(m.content_type.find("text/plain"), std::string::npos);
  for (const char* series :
       {"ptb_serve_http_requests", "ptb_serve_jobs_submitted",
        "ptb_serve_cache_hits", "ptb_serve_cache_memory_hits",
        "ptb_serve_cache_misses",
        "ptb_serve_cache_corrupt", "ptb_serve_queue_depth",
        "ptb_serve_jobs_in_flight", "ptb_serve_admission_host_tokens",
        "ptb_serve_http_request_ms"}) {
    EXPECT_NE(m.body.find(series), std::string::npos) << series;
  }
  // The one run above was a miss; the counter must say so.
  EXPECT_NE(m.body.find("ptb_serve_cache_misses 1"), std::string::npos)
      << m.body;
  server.stop();
}

// Extracts the value of `series` from a Prometheus exposition ("" absent).
std::string series_value(const std::string& text,
                         const std::string& series) {
  const std::size_t at = text.find("\n" + series + " ");
  if (at == std::string::npos) return "";
  const std::size_t start = at + 1 + series.size() + 1;
  return text.substr(start, text.find('\n', start) - start);
}

TEST(ServeE2E, AdmissionCapsInFlightSimulationsAtHostTokens) {
  // 2 workers but a host budget of 1: the scheduler may never have more
  // than one simulation in flight even with a deep single-tenant queue.
  // A poller samples the in-flight gauge while the sweep runs; sampling
  // can only under-observe a violation, never invent one, so a pass is
  // sound and a violation is caught with high probability.
  ServiceOptions opts = test_opts(fresh_cache_dir("admission"));
  opts.host_tokens = 1;
  Service service(opts);

  std::vector<RunRequest> reqs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunRequest r;
    r.benchmark = "fft";
    r.config.num_cores = 2;
    r.config.max_cycles = 20000;
    r.config.seed = seed;  // distinct addresses: all six really simulate
    reqs.push_back(r);
  }

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread poller([&] {
    while (!done.load()) {
      const std::string v =
          series_value(service.metrics_text(), "ptb_serve_jobs_in_flight");
      if (!v.empty() && std::strtod(v.c_str(), nullptr) > 1.0) {
        violations.fetch_add(1);
      }
    }
  });

  Service::Submitted submitted;
  std::string err;
  ASSERT_TRUE(service.submit("tenant-a", reqs, submitted, err)) << err;
  ASSERT_TRUE(service.wait(submitted.job_id));
  done.store(true);
  poller.join();

  EXPECT_EQ(violations.load(), 0) << "in-flight exceeded the token budget";
  const std::string status = service.job_status_json(submitted.job_id);
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
  service.stop();
}

TEST(ServeE2E, SweepWaitReturnsEveryArtifactAndSecondSweepHits) {
  Server server(test_opts(fresh_cache_dir("sweep")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  const std::string body =
      "{\"requests\":["
      "{\"benchmark\":\"fft\",\"config\":{\"num_cores\":2,"
      "\"max_cycles\":20000}},"
      "{\"benchmark\":\"radix\",\"config\":{\"num_cores\":2,"
      "\"max_cycles\":20000}}]}";
  const HttpResponse first =
      must_request(server.port(), "POST", "/v1/sweep?wait=1", body);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_NE(first.body.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(first.body.find("\"artifact\":{"), std::string::npos);

  const HttpResponse second =
      must_request(server.port(), "POST", "/v1/sweep?wait=1", body);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(second.body.find("\"cache\":\"miss\""), std::string::npos)
      << "second sweep re-simulated";
  // Embedded artifacts are the same bytes, so the whole response document
  // is identical apart from the job id.
  EXPECT_NE(second.body.find("\"cache\":\"hit\""), std::string::npos);
  server.stop();
}

// Polls GET /v1/jobs/{id} through the real route until the job is done or
// failed (bounded by the test timeout; each unit is milliseconds) and
// returns the final status document ("" on a non-200 answer).
std::string poll_job(std::uint16_t port, const std::string& job) {
  for (;;) {
    const HttpResponse r = must_request(port, "GET", "/v1/jobs/" + job);
    EXPECT_EQ(r.status, 200) << r.body;
    if (r.status != 200) return "";
    if (r.body.find("\"state\":\"done\"") != std::string::npos ||
        r.body.find("\"state\":\"failed\"") != std::string::npos) {
      return r.body;
    }
    // Gentle poll: a tight loop would churn thousands of one-shot
    // connections into TIME_WAIT while a sanitizer build simulates.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(ServeE2E, AsyncSubmitThenPollJob) {
  Server server(test_opts(fresh_cache_dir("async")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  const HttpResponse accepted =
      must_request(server.port(), "POST", "/v1/run", kRunBody);
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::string* job = find_header(accepted, "x-ptb-job");
  ASSERT_NE(job, nullptr);

  const std::string status = poll_job(server.port(), *job);
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"completed\":1"), std::string::npos) << status;
  server.stop();
}

// The request's trace id from the X-Ptb-Trace response header (0 when the
// header is absent, i.e. tracing off — span ids are minted from 1).
std::uint64_t trace_id_of(const HttpResponse& r) {
  const std::string* t = find_header(r, "x-ptb-trace");
  return t == nullptr ? 0 : std::strtoull(t->c_str(), nullptr, 16);
}

// The GET /v1/trace body, parsed back: every "X" event's name and its
// args.trace/span/parent linkage, plus otherData's drop accounting.
struct TraceDoc {
  std::vector<ServeSpan> spans;
  std::uint64_t emitted = 0;
};

TraceDoc parse_trace(const std::string& body) {
  TraceDoc out;
  json::Value doc;
  std::string err;
  EXPECT_TRUE(json::parse(body, doc, err)) << err;
  const json::Value* other = doc.find("otherData");
  const json::Value* emitted =
      other == nullptr ? nullptr : other->find("spans_emitted");
  EXPECT_TRUE(emitted != nullptr && emitted->as_u64(out.emitted)) << body;
  const json::Value* events = doc.find("traceEvents");
  EXPECT_TRUE(events != nullptr && events->is_array()) << body;
  if (events == nullptr) return out;
  for (const json::Value& ev : events->array()) {
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const json::Value* name = ev.find("name");
    const json::Value* args = ev.find("args");
    const json::Value* trace = args == nullptr ? nullptr : args->find("trace");
    const json::Value* span = args == nullptr ? nullptr : args->find("span");
    const json::Value* parent =
        args == nullptr ? nullptr : args->find("parent");
    ServeSpan s;
    if (name == nullptr || trace == nullptr || span == nullptr ||
        parent == nullptr || !parse_hex16(trace->as_string(), s.trace_id) ||
        !span->as_u32(s.span_id) || !parent->as_u32(s.parent_id)) {
      ADD_FAILURE() << "X event without name/args.trace/span/parent";
      continue;
    }
    s.name = name->as_string();
    out.spans.push_back(std::move(s));
  }
  return out;
}

// Sorted root-relative name paths ("request/simulate/...") of every span
// in `trace_id`: the tree's *structure*, with all timing erased.
std::vector<std::string> span_paths(const TraceDoc& trace,
                                    std::uint64_t trace_id) {
  std::map<std::uint32_t, const ServeSpan*> by_id;
  for (const ServeSpan& s : trace.spans) {
    if (s.trace_id == trace_id) by_id[s.span_id] = &s;
  }
  std::vector<std::string> paths;
  for (const auto& [id, s] : by_id) {
    std::string path = s->name;
    for (const ServeSpan* p = s; p->parent_id != 0;) {
      const auto parent = by_id.find(p->parent_id);
      if (parent == by_id.end()) break;
      p = parent->second;
      path = p->name + "/" + path;
    }
    paths.push_back(std::move(path));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// Opens a TCP connection to the daemon on 127.0.0.1; -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Appends one recv() worth of bytes to `out`; false on EOF or error.
bool recv_some(int fd, std::string& out) {
  char buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  if (n <= 0) return false;
  out.append(buf, static_cast<std::size_t>(n));
  return true;
}

// The `field` string ("state", "cache", ...) of unit `index` in a
// GET /v1/jobs/{id} document ("" when the unit has no such field).
std::string unit_field(const std::string& status, std::size_t index,
                       const char* field) {
  json::Value doc;
  std::string err;
  EXPECT_TRUE(json::parse(status, doc, err)) << err << ": " << status;
  const json::Value* units = doc.find("units");
  if (units == nullptr || !units->is_array() ||
      units->array().size() <= index) {
    ADD_FAILURE() << "no unit " << index << " in " << status;
    return "";
  }
  const json::Value* value = units->array()[index].find(field);
  return value == nullptr ? "" : value->as_string();
}

std::string unit_state(const std::string& status, std::size_t index) {
  return unit_field(status, index, "state");
}

TEST(ServeE2E, DrainFailsQueuedUnitsAndReleasesWaiters) {
  // One worker, two units: unit 0 is still simulating and unit 1 still
  // queued when the server drains. stop() must let unit 0 finish, fail
  // unit 1, and release a waiter blocked on the job.
  ServiceOptions opts = test_opts(fresh_cache_dir("drain"));
  opts.sim_workers = 1;
  opts.host_tokens = 1;
  Server server(opts, "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  // Unit 0 (radix on 16 cores, >100k cycles) runs for tens to hundreds of
  // milliseconds; unit 1 waits behind it on the single worker.
  const std::string body =
      "{\"requests\":["
      "{\"benchmark\":\"radix\",\"config\":{\"num_cores\":16}},"
      "{\"benchmark\":\"fft\",\"config\":{\"num_cores\":2}}]}";
  const HttpResponse accepted =
      must_request(server.port(), "POST", "/v1/sweep", body);
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::string* jobp = find_header(accepted, "x-ptb-job");
  ASSERT_NE(jobp, nullptr);
  const std::string job = *jobp;

  // Drain only once unit 0 is running: unit 1 is then queued, whatever
  // the host's speed.
  std::string state;
  for (;;) {
    const HttpResponse r =
        must_request(server.port(), "GET", "/v1/jobs/" + job);
    ASSERT_EQ(r.status, 200);
    state = unit_state(r.body, 0);
    if (state != "pending") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(state, "running");

  std::atomic<bool> released{false};
  std::thread waiter(
      [&] { released.store(server.service().wait(job)); });
  server.stop();  // finishes unit 0, fails unit 1
  waiter.join();
  EXPECT_TRUE(released.load()) << "drain left a waiter blocked";
  EXPECT_TRUE(server.service().wait(job));

  const std::string status = server.service().job_status_json(job);
  EXPECT_NE(status.find("\"state\":\"failed\""), std::string::npos) << status;
  EXPECT_NE(status.find("service shutting down"), std::string::npos)
      << status;
  EXPECT_EQ(unit_state(status, 0), "done") << "a running unit is finished";
  EXPECT_EQ(unit_state(status, 1), "failed") << status;
}

TEST(ServeE2E, SpanTreesAreStructurallyDeterministic) {
  Server server(test_opts(fresh_cache_dir("spans")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  const HttpResponse miss =
      must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
  ASSERT_EQ(miss.status, 200);
  const HttpResponse hit1 =
      must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
  const HttpResponse hit2 =
      must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
  ASSERT_EQ(hit1.status, 200);
  ASSERT_EQ(hit2.status, 200);

  const std::uint64_t t_miss = trace_id_of(miss);
  const std::uint64_t t_hit1 = trace_id_of(hit1);
  const std::uint64_t t_hit2 = trace_id_of(hit2);
  ASSERT_NE(t_miss, 0u) << "tracing is on by default";
  ASSERT_NE(t_hit1, 0u);
  ASSERT_NE(t_hit2, 0u);
  ASSERT_NE(t_hit1, t_hit2) << "each request gets its own trace";

  const HttpResponse tr = must_request(server.port(), "GET", "/v1/trace");
  ASSERT_EQ(tr.status, 200);
  EXPECT_NE(tr.content_type.find("application/json"), std::string::npos);
  const TraceDoc log = parse_trace(tr.body);
  EXPECT_GE(log.emitted, log.spans.size());

  // The miss ran the full pipeline: every stage nests under the root (the
  // acceptance bar is >= 6 nested stage spans for a cache-miss run).
  const std::vector<std::string> miss_paths = span_paths(log, t_miss);
  for (const char* path :
       {"request", "request/parse", "request/queue_wait",
        "request/admission_wait", "request/cache_probe", "request/simulate",
        "request/serialize", "request/cache_publish"}) {
    EXPECT_NE(std::find(miss_paths.begin(), miss_paths.end(), path),
              miss_paths.end())
        << path;
  }
  std::size_t nested = 0;
  for (const std::string& p : miss_paths) {
    if (p.find('/') != std::string::npos) ++nested;
  }
  EXPECT_GE(nested, 6u);

  // Two identical cache-hit requests produce *structurally identical*
  // trees — same names, same nesting — regardless of scheduler timing
  // (admission_wait is always emitted, zero-length when never blocked).
  const std::vector<std::string> p1 = span_paths(log, t_hit1);
  const std::vector<std::string> p2 = span_paths(log, t_hit2);
  ASSERT_FALSE(p1.empty());
  EXPECT_EQ(p1, p2);
  EXPECT_NE(std::find(p1.begin(), p1.end(), "request/cache_probe"),
            p1.end());
  for (const std::string& p : p1) {
    EXPECT_EQ(p.find("simulate"), std::string::npos)
        << "a cache hit must not simulate: " << p;
  }
  server.stop();
}

TEST(ServeE2E, StageHistogramsCountExactlyTheClosedSpans) {
  // Spans and /metrics stage histograms are views of one record
  // (Service::close_span): after one miss and two
  // hits, every ptb_serve_stage_<s>_ms_count equals the number of <s>
  // spans in the trace. The trace and metrics are read through handle()
  // — hand-built requests carry no transport stamps, so reading them
  // closes no parse span of its own.
  Server server(test_opts(fresh_cache_dir("stagecount")), "127.0.0.1", 0,
                2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody)
                  .status,
              200);
  }

  HttpRequest get;
  get.method = "GET";
  get.path = "/v1/trace";
  const HttpResponse tr = server.handle(get);
  ASSERT_EQ(tr.status, 200);
  get.path = "/metrics";
  const HttpResponse metrics = server.handle(get);
  ASSERT_EQ(metrics.status, 200);
  server.stop();

  std::map<std::string, std::uint64_t> spans_named;
  for (const ServeSpan& s : parse_trace(tr.body).spans) ++spans_named[s.name];
  EXPECT_EQ(spans_named["parse"], 3u);
  EXPECT_EQ(spans_named["simulate"], 1u) << "one miss simulates";
  for (const char* stage :
       {"parse", "queue_wait", "admission_wait", "cache_probe", "simulate",
        "serialize", "cache_publish"}) {
    const std::string series =
        std::string("ptb_serve_stage_") + stage + "_ms_count ";
    const std::size_t at = metrics.body.find("\n" + series);
    ASSERT_NE(at, std::string::npos) << series << "\n" << metrics.body;
    const std::uint64_t count = std::strtoull(
        metrics.body.c_str() + at + 1 + series.size(), nullptr, 10);
    EXPECT_EQ(count, spans_named[stage]) << stage;
  }
}

TEST(ServeE2E, ServedArtifactEqualsUnobservedPayload) {
  // The observe-only contract: the spans a served miss records leave the
  // artifact bytes as cached_run_payload builds them with no observer.
  // Fresh cache dirs on both sides, so both simulate.
  Server server(test_opts(fresh_cache_dir("obs_served")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  const HttpResponse served =
      must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
  server.stop();
  ASSERT_EQ(served.status, 200);
  EXPECT_EQ(*find_header(served, "x-ptb-cache"), "miss");
  EXPECT_NE(find_header(served, "x-ptb-trace"), nullptr);

  json::Value doc;
  ASSERT_TRUE(json::parse(kRunBody, doc, err)) << err;
  RunRequest req;
  ASSERT_TRUE(parse_run_request(doc, req, err)) << err;
  const DiskRunCache cache(fresh_cache_dir("obs_direct"));
  bool hit = true;
  const std::string direct = cached_run_payload(
      cache, benchmark_by_name(req.benchmark), req.config, hit, nullptr);
  EXPECT_FALSE(hit);
  EXPECT_EQ(served.body, direct)
      << "spans must not perturb the simulation artifact";
}

TEST(ServeE2E, FinishedTenantsLeaveNoBookkeeping) {
  // Every X-Ptb-Tenant value a client sends gets a queue and a running
  // count; both must go once that tenant's work is done, or a client
  // minting a tenant per request grows the scheduler without bound.
  Service service(test_opts(fresh_cache_dir("tenants")));
  constexpr int kTenants = 5;
  for (int t = 0; t < kTenants; ++t) {
    RunRequest r;
    r.benchmark = "fft";
    r.config.num_cores = 2;
    r.config.max_cycles = 20000;
    Service::Submitted submitted;
    std::string err;
    ASSERT_TRUE(service.submit("tenant-" + std::to_string(t), {r},
                               submitted, err))
        << err;
    ASSERT_TRUE(service.wait(submitted.job_id));
  }
  EXPECT_EQ(service.tenant_entries(), 0u);
  service.stop();
}

TEST(ServeE2E, AnsweredJobsHoldNoArtifactBytes) {
  // A unit holds its artifact only until it is handed over: a ?wait=1
  // answer moves the bytes out, and an async job keeps none (its client
  // reads GET /v1/results/{key}). After a miss, its hit, a waited sweep
  // and an async run polled to done, the job table holds no bytes, while
  // every job still reports done with its cache disposition.
  Server server(test_opts(fresh_cache_dir("held")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  const std::uint16_t port = server.port();

  // Every job id below with the expected cache disposition of each unit.
  std::vector<std::pair<std::string, std::vector<std::string>>> jobs;
  const auto job_of = [](const HttpResponse& r) {
    const std::string* job = find_header(r, "x-ptb-job");
    return job == nullptr ? std::string() : *job;
  };

  const HttpResponse miss =
      must_request(port, "POST", "/v1/run?wait=1", kRunBody);
  ASSERT_EQ(miss.status, 200) << miss.body;
  EXPECT_EQ(*find_header(miss, "x-ptb-cache"), "miss");
  jobs.push_back({job_of(miss), {"miss"}});
  const HttpResponse hit =
      must_request(port, "POST", "/v1/run?wait=1", kRunBody);
  ASSERT_EQ(hit.status, 200) << hit.body;
  EXPECT_EQ(*find_header(hit, "x-ptb-cache"), "hit");
  EXPECT_EQ(hit.body, miss.body);
  jobs.push_back({job_of(hit), {"hit"}});

  // fft is the run above (a hit); radix is fresh (a miss).
  const std::string sweep_body =
      "{\"requests\":[" + std::string(kRunBody) +
      ",{\"benchmark\":\"radix\",\"config\":{\"num_cores\":2,"
      "\"max_cycles\":20000}}]}";
  const HttpResponse sweep =
      must_request(port, "POST", "/v1/sweep?wait=1", sweep_body);
  ASSERT_EQ(sweep.status, 200) << sweep.body;
  jobs.push_back({job_of(sweep), {"hit", "miss"}});

  // A config no earlier request used, so the async job really simulates.
  const std::string async_body =
      "{\"benchmark\":\"fft\","
      "\"config\":{\"num_cores\":2,\"max_cycles\":26000}}";
  const HttpResponse accepted =
      must_request(port, "POST", "/v1/run", async_body);
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::string async_job = job_of(accepted);
  poll_job(port, async_job);
  jobs.push_back({async_job, {"miss"}});

  EXPECT_EQ(server.service().held_payload_bytes(), 0u)
      << "a finished job kept artifact bytes";

  for (const auto& [job, caches] : jobs) {
    ASSERT_FALSE(job.empty());
    const HttpResponse r = must_request(port, "GET", "/v1/jobs/" + job);
    ASSERT_EQ(r.status, 200) << job;
    EXPECT_NE(r.body.find("\"state\":\"done\""), std::string::npos)
        << r.body;
    for (std::size_t i = 0; i < caches.size(); ++i) {
      EXPECT_EQ(unit_field(r.body, i, "cache"), caches[i]) << r.body;
    }
  }

  // The async job's artifact is served by key, with exactly the bytes a
  // ?wait=1 of the same request answers.
  json::Value doc;
  ASSERT_TRUE(json::parse(accepted.body, doc, err)) << err;
  const json::Value* keys = doc.find("keys");
  ASSERT_TRUE(keys != nullptr && keys->is_array() &&
              keys->array().size() == 1)
      << accepted.body;
  const HttpResponse by_key = must_request(
      port, "GET", "/v1/results/" + keys->array()[0].as_string());
  ASSERT_EQ(by_key.status, 200) << by_key.body;
  const HttpResponse waited =
      must_request(port, "POST", "/v1/run?wait=1", async_body);
  ASSERT_EQ(waited.status, 200) << waited.body;
  EXPECT_EQ(by_key.body, waited.body);
  EXPECT_EQ(server.service().held_payload_bytes(), 0u);
  server.stop();
}

// Routing error surface, exercised without sockets through handle().
// Raw-socket request for wire-level cases the structured client cannot
// express (here: a Content-Length the server must refuse to buffer).
// Sends `bytes`, reads to EOF, returns everything the server answered.
std::string raw_request(std::uint16_t port, const std::string& bytes) {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  // Read whatever the server answered even if it closed mid-send.
  (void)send_all(fd, bytes);
  std::string out;
  while (recv_some(fd, out)) {
  }
  ::close(fd);
  return out;
}

TEST(ServeE2E, OversizedContentLengthRejectedWith413) {
  // The body cap must trip on the declared Content-Length alone — the
  // server answers 413 and closes without waiting for (or buffering) the
  // advertised megabytes. Only the request head is ever sent here, so a
  // hang would mean the server tried to read the body.
  Server server(test_opts(fresh_cache_dir("toolarge")), "127.0.0.1", 0, 1);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  const std::string head =
      "POST /v1/run HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\n"
      "Content-Length: 1048577\r\n"  // 1 MiB cap + 1
      "Connection: close\r\n"
      "\r\n";
  const std::string resp = raw_request(server.port(), head);
  ASSERT_FALSE(resp.empty()) << "no response to oversized request";
  EXPECT_EQ(resp.rfind("HTTP/1.1 413 ", 0), 0u) << resp;

  // A request at the cap's edge with a *lying* (absent) body also cannot
  // wedge the worker: a fresh, well-formed request still gets served.
  EXPECT_EQ(must_request(server.port(), "GET", "/healthz").status, 200);
  server.stop();
}

TEST(ServeE2E, RequestFramingIsStrict) {
  // Each request carries a 12-byte body: a lenient server would frame it
  // somehow and answer the (valid) GET /healthz.
  Server server(test_opts(fresh_cache_dir("framing")), "127.0.0.1", 0, 1);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  const char* framings[] = {
      "Content-Length: +12\r\n",
      "Content-Length: -0\r\n",
      "Content-Length: -1\r\n",
      "Content-Length: 12\r\nContent-Length: 0\r\n",
      "Transfer-Encoding: chunked\r\n",
      "Content-Length: 12\r\nTransfer-Encoding: identity\r\n",
  };
  for (const char* framing : framings) {
    SCOPED_TRACE(framing);
    const std::string resp = raw_request(
        server.port(), std::string("GET /healthz HTTP/1.1\r\n") + framing +
                           "Connection: close\r\n\r\n0123456789ab");
    EXPECT_EQ(resp.rfind("HTTP/1.1 400 ", 0), 0u) << resp;
  }
  // Identical duplicates frame the body unambiguously.
  const std::string dup = raw_request(
      server.port(),
      "GET /healthz HTTP/1.1\r\nContent-Length: 12\r\n"
      "Content-Length: 12\r\nConnection: close\r\n\r\n0123456789ab");
  EXPECT_EQ(dup.rfind("HTTP/1.1 200 ", 0), 0u) << dup;
  server.stop();
}

TEST(ServeE2E, TrickleClientIsCutAtTheRequestDeadline) {
  // One head byte a second never trips a per-recv timeout, so only a
  // deadline over the whole request (10 s) frees the worker: the server
  // must answer 400 or close by then, plus slack.
  Server server(test_opts(fresh_cache_dir("trickle")), "127.0.0.1", 0, 1);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string head =
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Trickle: "
      "0123456789012345678901234567890123456789\r\n\r\n";
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::string resp;
  bool cut = false;
  for (std::size_t i = 0; i < head.size() && elapsed_s() < 14.0; ++i) {
    (void)send_all(fd, head.substr(i, 1));
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 1000) > 0) {
      while (recv_some(fd, resp)) {
      }
      cut = true;
      break;
    }
  }
  const double cut_at = elapsed_s();
  ::close(fd);
  ASSERT_TRUE(cut) << "still reading a trickled head after " << cut_at
                   << " s";
  EXPECT_GE(cut_at, 9.0);
  EXPECT_LT(cut_at, 14.0);
  EXPECT_TRUE(resp.empty() || resp.rfind("HTTP/1.1 400 ", 0) == 0) << resp;
  // The worker is free again.
  EXPECT_EQ(must_request(server.port(), "GET", "/healthz").status, 200);
  server.stop();
}

TEST(ServeE2E, HandleErrorSurface) {
  Server server(test_opts(fresh_cache_dir("errors")), "127.0.0.1", 0, 1);

  const auto req = [](const char* method, const char* path,
                      const char* body = "") {
    HttpRequest r;
    r.method = method;
    r.path = path;
    r.body = body;
    return r;
  };

  EXPECT_EQ(server.handle(req("GET", "/healthz")).status, 200);
  EXPECT_EQ(server.handle(req("GET", "/no/such/route")).status, 404);
  EXPECT_EQ(server.handle(req("GET", "/v1/run")).status, 405);
  EXPECT_EQ(server.handle(req("POST", "/v1/run", "{not json")).status, 400);
  EXPECT_EQ(
      server.handle(req("POST", "/v1/run", "{\"benchmark\":\"nope\"}"))
          .status,
      400);
  EXPECT_EQ(server.handle(req("GET", "/v1/jobs/j99999999")).status, 404);
  // A live job answers on its status route only; any sub-path under it
  // names no job.
  const HttpResponse accepted = server.handle(req("POST", "/v1/run", kRunBody));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::string* job = find_header(accepted, "X-Ptb-Job");
  ASSERT_NE(job, nullptr);
  const std::string status_path = "/v1/jobs/" + *job;
  EXPECT_EQ(server.handle(req("GET", status_path.c_str())).status, 200);
  EXPECT_EQ(
      server.handle(req("GET", (status_path + "/events").c_str())).status,
      404);
  EXPECT_EQ(
      server.handle(req("GET", "/v1/results/0123456789abcdef")).status,
      404);
  EXPECT_EQ(server.handle(req("GET", "/v1/results/not-a-key")).status, 404);

  // Drained service answers 503, not a hang.
  server.service().stop();
  EXPECT_EQ(server.handle(req("POST", "/v1/run", kRunBody)).status, 503);
}

}  // namespace
}  // namespace ptb::serve
